//! The fault-injection seam.
//!
//! [`PlannedInjector`] is the hook an execution engine calls at each
//! fault *site*: once per mmo (tile-granularity `D = C ⊕ A⊗B`) and once
//! per store, every draw from a seeded [`FaultPlan`]. Sites are
//! addressed two ways:
//!
//! * **visit order** ([`PlannedInjector::inject_mmo`]) — a monotonically
//!   increasing counter, for strictly sequential engines (the warp-level
//!   ISA executor);
//! * **coordinates** (through [`FaultySimd2Unit`]) — the site key
//!   derives from `(matrix-mmo sequence, ti, tj, tk)`, so the same plan
//!   strikes the same tiles regardless of execution order or worker
//!   count. This is what lets fault campaigns run on the panel-parallel
//!   tile-grid schedule with bit-identical results to sequential.
//!
//! Either way, a retry of the same mmo (a fresh visit-order site, or a
//! fresh matrix-mmo sequence number) sees an independent fault draw —
//! the transient-fault model that makes retry a meaningful recovery
//! policy.
//!
//! [`MmoUnit`] (defined beside the unit, in `simd2-mxu`) abstracts
//! "something that executes a tile mmo", letting backends be generic
//! over the pristine [`Simd2Unit`] or the [`FaultySimd2Unit`] wrapper
//! here that corrupts its outputs. Its
//! [`shard`](MmoUnit::shard)/[`absorb`](MmoUnit::absorb) seam is how a
//! parallel engine replicates a unit across workers and deterministically
//! merges per-worker fault logs after the join. Neither wrapper is
//! [coordinate-free](MmoUnit::COORDINATE_FREE): an engine walks them
//! tile by tile, so their sites stay [`TileCoord`]s.

use std::collections::VecDeque;

use simd2_matrix::{Tile, ISA_TILE};
use simd2_mxu::{MmoUnit, PrecisionMode, Simd2Unit, TileCoord};
use simd2_semiring::simd::KernelIsa;
use simd2_semiring::OpKind;
use simd2_trace::{field, span, Counter, Tracer};

use crate::plan::{mix, FaultKind, FaultPlan, MXU_GRID};

/// Process-global count of injected faults (all injectors, all kinds).
static INJECTED_FAULTS: Counter = Counter::new("fault.injected");
/// Process-global count of fault-log ring-buffer evictions.
static LOG_DROPPED: Counter = Counter::new("fault.log_dropped");

/// The full coordinate address of an mmo fault site: which whole-matrix
/// mmo (by sequence number within the injector's lifetime) and which
/// tile-grid step inside it.
///
/// Ordering is lexicographic `(mmo_seq, ti, tj, tk)` — the order a
/// row-major tile-grid schedule visits sites (and the order the tiled
/// backend's logs come out in whenever the packed `B` operand fits one
/// column strip; wider grids are visited strip by strip).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MmoCoord {
    /// Whole-matrix mmo sequence number (1-based; see
    /// [`MmoUnit::begin_matrix_mmo`]).
    pub mmo_seq: u64,
    /// Output tile row.
    pub ti: u32,
    /// Output tile column.
    pub tj: u32,
    /// Reduction (k) tile index.
    pub tk: u32,
}

/// Domain separator keeping coordinate-derived site keys disjoint from
/// the small integers the visit-order stream uses.
const COORD_SITE_SALT: u64 = 0xc00d_517e_ad42_e55e;

impl MmoCoord {
    /// The plan-site key this coordinate hashes to. A pure function of
    /// the coordinate, so any execution order (or worker count) that
    /// reaches the same tile draws the same fault.
    pub fn site_key(self) -> u64 {
        let packed = (u64::from(self.ti) << 42) ^ (u64::from(self.tj) << 21) ^ u64::from(self.tk);
        mix(mix(self.mmo_seq ^ COORD_SITE_SALT) ^ packed)
    }

    /// The *sequence-free* site key: a pure function of `(ti, tj, tk)`
    /// with the mmo sequence number deliberately left out. Sticky
    /// repeat-offender draws key on this, so re-executing the same tile
    /// — on retry, on the sequential fallback schedule, or in a resumed
    /// plan — strikes the identical defect every time.
    pub fn coord_key(self) -> u64 {
        let packed = (u64::from(self.ti) << 42) ^ (u64::from(self.tj) << 21) ^ u64::from(self.tk);
        mix(COORD_SITE_SALT ^ packed)
    }
}

/// One injected fault, for campaign logs and telemetry.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultLogEntry {
    /// The site key the fault struck at.
    pub site: u64,
    /// The coordinate address of the site, when the engine addressed it
    /// by coordinates (`None` for visit-order and store sites).
    pub coord: Option<MmoCoord>,
    /// The semiring op executing at the site (`None` for store sites).
    pub op: Option<OpKind>,
    /// What was injected.
    pub kind: FaultKind,
}

/// Applies a tile-class fault to an `n × n` row-major output buffer.
pub fn apply_to_tile(kind: FaultKind, d: &mut [f32], n: usize) {
    debug_assert_eq!(d.len(), n * n);
    match kind {
        FaultKind::BitFlip { row, col, bit } => {
            let idx = row * n + col;
            d[idx] = f32::from_bits(d[idx].to_bits() ^ (1u32 << bit));
        }
        FaultKind::StuckLane {
            lane_row,
            lane_col,
            value,
        } => {
            for r in 0..n {
                for c in 0..n {
                    if r % MXU_GRID == lane_row && c % MXU_GRID == lane_col {
                        d[r * n + c] = value;
                    }
                }
            }
        }
        FaultKind::TransientNan { row, col, inf } => {
            d[row * n + col] = if inf { f32::INFINITY } else { f32::NAN };
        }
        FaultKind::StickyNan { row, col } => {
            d[row * n + col] = f32::NAN;
        }
        FaultKind::MemBitFlip { .. } => {
            debug_assert!(false, "memory fault applied to a tile");
        }
    }
}

/// Applies a memory-class fault to a shared-memory word buffer.
pub fn apply_to_memory(kind: FaultKind, words: &mut [f32]) {
    if let FaultKind::MemBitFlip { word, bit } = kind {
        if word < words.len() {
            words[word] = f32::from_bits(words[word].to_bits() ^ (1u32 << bit));
        }
    } else {
        debug_assert!(false, "tile fault applied to memory");
    }
}

/// Default cap on retained [`FaultLogEntry`]s (~3 MB at saturation), so
/// unbounded campaigns — soak loops, long-lived serving backends — hold
/// memory constant while [`PlannedInjector::injected`]/
/// [`PlannedInjector::dropped`] keep exact totals.
pub const DEFAULT_LOG_CAPACITY: usize = 65_536;

/// The fault injector: every draw comes from a seeded [`FaultPlan`].
///
/// Visit-order site counters advance monotonically for the injector's
/// lifetime and never reset, so repeated execution of the same program
/// draws fresh faults each time; coordinate-addressed draws key off the
/// matrix-mmo sequence number advanced by
/// [`begin_matrix_mmo`](MmoUnit::begin_matrix_mmo) instead. The
/// fault log is a bounded ring: once `capacity` entries are retained the
/// oldest are evicted (counted in [`dropped`](Self::dropped)),
/// so the injector never grows without limit.
///
/// With a [`Tracer`] attached (see
/// [`set_tracer`](PlannedInjector::set_tracer)), every injection emits a
/// [`span::FAULT`] instant event (`stage = "injected"`, with the site
/// key, coordinate address, op, and fault kind) and every ring eviction
/// emits `stage = "dropped"` — so the previously injector-private
/// `dropped` total is visible in the telemetry stream.
#[derive(Clone, Debug)]
pub struct PlannedInjector {
    plan: FaultPlan,
    mmo_seq: u64,
    next_mmo_site: u64,
    next_store_site: u64,
    mmo_sites: u64,
    injected: u64,
    dropped: u64,
    capacity: usize,
    log: VecDeque<FaultLogEntry>,
    tracer: Tracer,
}

impl PartialEq for PlannedInjector {
    /// Telemetry wiring is not part of an injector's logical state:
    /// equality compares the plan, site cursors, counters, and log.
    fn eq(&self, other: &Self) -> bool {
        self.plan == other.plan
            && self.mmo_seq == other.mmo_seq
            && self.next_mmo_site == other.next_mmo_site
            && self.next_store_site == other.next_store_site
            && self.mmo_sites == other.mmo_sites
            && self.injected == other.injected
            && self.dropped == other.dropped
            && self.capacity == other.capacity
            && self.log == other.log
    }
}

impl PlannedInjector {
    /// A fresh injector at site zero with the default log capacity.
    pub fn new(plan: FaultPlan) -> Self {
        Self::with_log_capacity(plan, DEFAULT_LOG_CAPACITY)
    }

    /// A fresh injector retaining at most `capacity` log entries
    /// (oldest evicted first; `capacity` is clamped to at least 1).
    pub fn with_log_capacity(plan: FaultPlan, capacity: usize) -> Self {
        Self {
            plan,
            mmo_seq: 0,
            next_mmo_site: 0,
            next_store_site: 0,
            mmo_sites: 0,
            injected: 0,
            dropped: 0,
            capacity: capacity.max(1),
            log: VecDeque::new(),
            tracer: Tracer::off(),
        }
    }

    /// Attaches a telemetry tracer (builder form).
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Attaches a telemetry tracer. Shards taken after this call share
    /// it, so parallel campaigns stream into one sink.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The attached tracer (disabled by default).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The plan driving this injector.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The current whole-matrix mmo sequence number.
    pub fn mmo_seq(&self) -> u64 {
        self.mmo_seq
    }

    /// The number of mmo sites visited so far (both addressing modes).
    pub fn mmo_sites(&self) -> u64 {
        self.mmo_sites
    }

    /// The number of store sites visited so far.
    pub fn store_sites(&self) -> u64 {
        self.next_store_site
    }

    /// The maximum number of log entries retained.
    pub fn log_capacity(&self) -> usize {
        self.capacity
    }

    fn push_log(&mut self, entry: FaultLogEntry) {
        if self.log.len() == self.capacity {
            let evicted = self.log.pop_front();
            self.dropped += 1;
            if self.tracer.enabled() {
                LOG_DROPPED.add(1);
                let site = evicted.map_or(0, |e| e.site);
                self.tracer.instant(
                    span::FAULT,
                    &[field("stage", "dropped"), field("site", site)],
                );
            }
        }
        self.log.push_back(entry);
    }

    /// Emits the `stage = "injected"` telemetry event for `entry`.
    fn emit_injected(&self, entry: &FaultLogEntry) {
        if !self.tracer.enabled() {
            return;
        }
        INJECTED_FAULTS.add(1);
        let op = entry.op.map_or("store", |op| op.name());
        let kind = entry.kind.label();
        match entry.coord {
            Some(c) => self.tracer.instant(
                span::FAULT,
                &[
                    field("stage", "injected"),
                    field("site", entry.site),
                    field("op", op),
                    field("fault_kind", kind),
                    field("mmo_seq", c.mmo_seq),
                    field("ti", c.ti),
                    field("tj", c.tj),
                    field("tk", c.tk),
                ],
            ),
            None => self.tracer.instant(
                span::FAULT,
                &[
                    field("stage", "injected"),
                    field("site", entry.site),
                    field("op", op),
                    field("fault_kind", kind),
                ],
            ),
        }
    }

    /// Possibly corrupts the output tile of one mmo (row-major, `n × n`)
    /// at the next visit-order site — for strictly sequential engines.
    /// Returns the fault that struck, if any.
    pub fn inject_mmo(&mut self, op: OpKind, d: &mut [f32], n: usize) -> Option<FaultKind> {
        let site = self.next_mmo_site;
        self.next_mmo_site += 1;
        self.mmo_sites += 1;
        let kind = self.plan.fault_for_mmo_site(site, n)?;
        apply_to_tile(kind, d, n);
        self.injected += 1;
        let entry = FaultLogEntry {
            site,
            coord: None,
            op: Some(op),
            kind,
        };
        self.emit_injected(&entry);
        self.push_log(entry);
        Some(kind)
    }

    /// Possibly corrupts the output tile of one mmo at an explicit
    /// tile-grid coordinate. Order-independent: the draw depends only on
    /// the current matrix-mmo sequence number and `coord`, never on how
    /// many sites were visited before it.
    pub(crate) fn inject_mmo_at(
        &mut self,
        coord: TileCoord,
        op: OpKind,
        d: &mut [f32],
        n: usize,
    ) -> Option<FaultKind> {
        let coord = MmoCoord {
            mmo_seq: self.mmo_seq,
            ti: coord.ti,
            tj: coord.tj,
            tk: coord.tk,
        };
        self.mmo_sites += 1;
        // Sticky sites are tried first and keyed on the coordinate
        // alone: a retried mmo advances `mmo_seq` and so re-draws every
        // transient, but the sticky defect re-strikes identically.
        let (site, kind) = match self.plan.sticky_fault_for_site(coord.coord_key(), n) {
            Some(kind) => (coord.coord_key(), kind),
            None => {
                let site = coord.site_key();
                (site, self.plan.fault_for_mmo_site(site, n)?)
            }
        };
        apply_to_tile(kind, d, n);
        self.injected += 1;
        let entry = FaultLogEntry {
            site,
            coord: Some(coord),
            op: Some(op),
            kind,
        };
        self.emit_injected(&entry);
        self.push_log(entry);
        Some(kind)
    }

    /// Marks the start of a new whole-matrix mmo, advancing the sequence
    /// number coordinate-addressed draws derive from. A retried mmo
    /// therefore sees fresh, independent faults — transients are
    /// transient.
    pub(crate) fn begin_matrix_mmo(&mut self) {
        self.mmo_seq += 1;
    }

    /// Possibly corrupts shared memory after a store; returns the fault
    /// that struck, if any.
    pub fn inject_store(&mut self, memory: &mut [f32]) -> Option<FaultKind> {
        let site = self.next_store_site;
        self.next_store_site += 1;
        let kind = self.plan.fault_for_mem_site(site, memory.len())?;
        apply_to_memory(kind, memory);
        self.injected += 1;
        let entry = FaultLogEntry {
            site,
            coord: None,
            op: None,
            kind,
        };
        self.emit_injected(&entry);
        self.push_log(entry);
        Some(kind)
    }

    /// Total faults injected so far (including any whose log entries
    /// were dropped by the bounded log).
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// A snapshot of the retained fault log, oldest first.
    pub fn log(&self) -> Vec<FaultLogEntry> {
        self.log.iter().copied().collect()
    }

    /// Log entries evicted by the bounded log (see
    /// [`with_log_capacity`](Self::with_log_capacity)).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// A worker shard: same plan and current matrix-mmo sequence, empty
    /// log and zeroed telemetry counters. Draws are addressed by
    /// coordinate, so every shard strikes the same tile with the same
    /// fault whichever worker visits it.
    pub(crate) fn shard(&self) -> Self {
        Self {
            plan: self.plan,
            mmo_seq: self.mmo_seq,
            next_mmo_site: 0,
            next_store_site: 0,
            mmo_sites: 0,
            injected: 0,
            dropped: 0,
            capacity: self.capacity,
            log: VecDeque::new(),
            tracer: self.tracer.clone(),
        }
    }

    /// Merges a shard's log and counters back into `self`.
    ///
    /// Callers must absorb shards in the order a sequential schedule
    /// would have visited their tiles (for row panels: ascending output
    /// tile row); each shard logs its own tiles in visit order, so
    /// ordered absorption reproduces exactly the sequential log.
    pub(crate) fn absorb(&mut self, shard: Self) {
        self.mmo_sites += shard.mmo_sites;
        self.injected += shard.injected;
        self.dropped += shard.dropped;
        for entry in shard.log {
            self.push_log(entry);
        }
    }
}

/// A [`Simd2Unit`] whose outputs pass through a fault injector.
#[derive(Clone, Debug)]
pub struct FaultySimd2Unit {
    unit: Simd2Unit,
    injector: PlannedInjector,
    vector_only: bool,
}

impl FaultySimd2Unit {
    /// Wraps `unit` with `injector`.
    pub fn new(unit: Simd2Unit, injector: PlannedInjector) -> Self {
        Self {
            unit,
            injector,
            vector_only: false,
        }
    }

    /// Attributes the faults to the *vector* datapath: injection only
    /// happens while the unit's tile kernel runs on a vector tier, and
    /// stops entirely once the kernel is re-pinned to scalar — the
    /// hardware model where a marginal SIMD lane corrupts results the
    /// scalar datapath computes cleanly. This is what makes a
    /// degradation ladder's pin-to-scalar rung *provably* effective
    /// under chaos, not just plausibly.
    pub fn with_vector_only(mut self, vector_only: bool) -> Self {
        self.vector_only = vector_only;
        self
    }

    /// Whether injection is gated on a vector kernel tier.
    pub fn vector_only(&self) -> bool {
        self.vector_only
    }

    /// Whether the injector is live for the unit's current kernel tier.
    fn injection_armed(&self) -> bool {
        !self.vector_only || self.unit.kernel_isa() != KernelIsa::Scalar
    }

    /// Passes a freshly computed output tile through the injector, in
    /// place, at the coordinate the engine supplied. A disarmed unit
    /// visits no site.
    fn inject(&mut self, coord: TileCoord, op: OpKind, d: &mut Tile<ISA_TILE>) {
        if self.injection_armed() {
            self.injector
                .inject_mmo_at(coord, op, d.as_flat_mut(), ISA_TILE);
        }
    }

    /// The pristine underlying unit.
    pub fn unit(&self) -> &Simd2Unit {
        &self.unit
    }

    /// The injector, for telemetry.
    pub fn injector(&self) -> &PlannedInjector {
        &self.injector
    }

    /// Unwraps into the injector, e.g. to read the final fault log.
    pub fn into_injector(self) -> PlannedInjector {
        self.injector
    }
}

impl MmoUnit for FaultySimd2Unit {
    fn quantize_packed(&self, xs: &mut [f32]) {
        self.unit.quantize_operands(xs);
    }

    fn execute_packed_at(
        &mut self,
        coord: TileCoord,
        op: OpKind,
        a: &[f32],
        b: &[f32],
        acc: &mut Tile<ISA_TILE>,
    ) {
        self.unit.execute_chain(op, a, b, acc);
        self.inject(coord, op, acc);
    }

    fn begin_matrix_mmo(&mut self) {
        self.injector.begin_matrix_mmo();
    }

    fn precision(&self) -> PrecisionMode {
        self.unit.precision()
    }

    fn kernel_isa(&self) -> KernelIsa {
        self.unit.kernel_isa()
    }

    fn repin_kernel(&mut self, isa: KernelIsa) -> bool {
        MmoUnit::repin_kernel(&mut self.unit, isa)
    }

    fn fault_dropped(&self) -> u64 {
        self.injector.dropped()
    }

    fn shard(&self) -> Option<Self> {
        Some(Self {
            unit: self.unit,
            injector: self.injector.shard(),
            vector_only: self.vector_only,
        })
    }

    fn absorb(&mut self, shard: Self) {
        self.injector.absorb(shard.injector);
    }
}

/// A chaos-probe datapath: computes exactly like [`Simd2Unit`], but a
/// worker *shard* panics when it reaches output tile row `panic_ti` —
/// the deterministic way to exercise a parallel engine's panic
/// containment. The parent unit (and therefore any sequential schedule,
/// including a post-panic sequential retry) never panics.
#[derive(Clone, Copy, Debug)]
pub struct PanicProbeUnit {
    unit: Simd2Unit,
    panic_ti: u32,
    is_shard: bool,
}

/// Prefix of the panic payload [`PanicProbeUnit`] raises, so harnesses
/// can tell an injected probe panic from a genuine defect.
pub const PANIC_PROBE_PAYLOAD: &str = "injected worker panic";

impl PanicProbeUnit {
    /// Wraps `unit`; shards of this probe panic at tile row `panic_ti`.
    pub fn new(unit: Simd2Unit, panic_ti: u32) -> Self {
        Self {
            unit,
            panic_ti,
            is_shard: false,
        }
    }

    /// The tile row whose shard execution panics.
    pub fn panic_ti(&self) -> u32 {
        self.panic_ti
    }

    /// Raises the probe panic when a shard reaches its tile row.
    fn check_probe(&self, coord: TileCoord) {
        if self.is_shard && coord.ti == self.panic_ti {
            panic!("{PANIC_PROBE_PAYLOAD} at tile row {}", coord.ti);
        }
    }
}

impl MmoUnit for PanicProbeUnit {
    fn quantize_packed(&self, xs: &mut [f32]) {
        self.unit.quantize_operands(xs);
    }

    fn execute_packed_at(
        &mut self,
        coord: TileCoord,
        op: OpKind,
        a: &[f32],
        b: &[f32],
        acc: &mut Tile<ISA_TILE>,
    ) {
        self.check_probe(coord);
        self.unit.execute_chain(op, a, b, acc);
    }

    fn precision(&self) -> PrecisionMode {
        self.unit.precision()
    }

    fn repin_kernel(&mut self, isa: KernelIsa) -> bool {
        MmoUnit::repin_kernel(&mut self.unit, isa)
    }

    fn shard(&self) -> Option<Self> {
        Some(Self {
            is_shard: true,
            ..*self
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::FaultPlanConfig;

    fn always_plan() -> FaultPlan {
        FaultPlan::new(FaultPlanConfig::uniform(11, 1_000_000))
    }

    /// Plus-mul `c ⊕ (a ⊗ b)` at `coord` through the unit's two engine
    /// hooks: operands packed flat and quantised, then one per-coordinate
    /// fold.
    fn fold_at<U: MmoUnit>(
        unit: &mut U,
        coord: TileCoord,
        a: &Tile<16>,
        b: &Tile<16>,
        c: &Tile<16>,
    ) -> Tile<16> {
        let (mut qa, mut qb) = (a.as_flat().to_vec(), b.as_flat().to_vec());
        unit.quantize_packed(&mut qa);
        unit.quantize_packed(&mut qb);
        let mut acc = *c;
        unit.execute_packed_at(coord, OpKind::PlusMul, &qa, &qb, &mut acc);
        acc
    }

    #[test]
    fn planned_injector_advances_sites_and_logs() {
        let mut inj = PlannedInjector::new(always_plan());
        let mut d = vec![1.0f32; 256];
        let first = inj.inject_mmo(OpKind::PlusMul, &mut d, 16);
        assert!(first.is_some());
        let mut mem = vec![0.5f32; 64];
        assert!(inj.inject_store(&mut mem).is_some());
        assert_eq!(inj.injected(), 2);
        assert_eq!(inj.mmo_sites(), 1);
        assert_eq!(inj.store_sites(), 1);
        assert_eq!(inj.log()[0].op, Some(OpKind::PlusMul));
        assert_eq!(inj.log()[1].op, None);
    }

    #[test]
    fn retries_draw_fresh_faults() {
        let plan = FaultPlan::new(FaultPlanConfig::uniform(11, 500_000));
        let mut inj = PlannedInjector::new(plan);
        let mut outcomes = Vec::new();
        for _ in 0..64 {
            let mut d = vec![1.0f32; 256];
            outcomes.push(inj.inject_mmo(OpKind::PlusMul, &mut d, 16));
        }
        // At ~50% rate, 64 retries must see both struck and clean sites.
        assert!(outcomes.iter().any(Option::is_some));
        assert!(outcomes.iter().any(Option::is_none));
    }

    #[test]
    fn bit_flip_changes_exactly_one_element() {
        let mut d = vec![2.0f32; 16];
        apply_to_tile(
            FaultKind::BitFlip {
                row: 1,
                col: 2,
                bit: 31,
            },
            &mut d,
            4,
        );
        assert_eq!(d[4 + 2], -2.0);
        assert_eq!(d.iter().filter(|&&x| x != 2.0).count(), 1);
    }

    #[test]
    fn stuck_lane_covers_the_grid_pattern() {
        let mut d = vec![7.0f32; 256];
        apply_to_tile(
            FaultKind::StuckLane {
                lane_row: 1,
                lane_col: 3,
                value: 0.0,
            },
            &mut d,
            16,
        );
        let stuck = d.iter().filter(|&&x| x == 0.0).count();
        assert_eq!(stuck, (16 / MXU_GRID) * (16 / MXU_GRID));
        assert_eq!(d[16 + 3], 0.0);
        assert_eq!(d[5 * 16 + 7], 0.0);
        assert_eq!(d[0], 7.0);
    }

    #[test]
    fn faulty_unit_differs_from_pristine_under_full_rate() {
        let unit = Simd2Unit::new();
        let a = Tile::<16>::from_fn(|r, c| (r + c) as f32 * 0.25);
        let b = Tile::<16>::from_fn(|r, c| (r * 16 + c) as f32 * 0.01);
        let c = Tile::<16>::splat(0.0);
        let clean = unit.execute(OpKind::PlusMul, &a, &b, &c);
        let mut faulty = FaultySimd2Unit::new(unit, PlannedInjector::new(always_plan()));
        MmoUnit::begin_matrix_mmo(&mut faulty);
        let dirty = fold_at(&mut faulty, TileCoord::new(0, 0, 0), &a, &b, &c);
        assert_eq!(faulty.injector().injected(), 1);
        // A full-rate plan must strike; the struck tile may still be
        // value-identical only if the flip hit an element's dead bits,
        // which the plan's parameters make impossible here (flip of a
        // nonzero value always changes its bits).
        let mut changed = false;
        for (r, cc, v) in clean.iter() {
            let w = dirty.get(r, cc);
            if v.to_bits() != w.to_bits() {
                changed = true;
            }
        }
        assert!(changed);
    }

    #[test]
    fn packed_chain_strikes_like_the_per_tile_walk() {
        // One chain call over quantised packed tiles must visit the same
        // coordinates, draw the same faults and leave the same bits as
        // one pristine tile mmo then one coordinate-addressed injection
        // per `tk` over the raw tiles.
        let a: Vec<Tile<16>> = (0..4)
            .map(|t| Tile::from_fn(|r, c| 0.1 * (r + 2 * c + t) as f32))
            .collect();
        let b: Vec<Tile<16>> = (0..4)
            .map(|t| Tile::from_fn(|r, c| 0.3 * ((3 * r + c + t) % 11) as f32))
            .collect();
        let c = Tile::<16>::splat(0.5);
        let injector = || {
            let plan = FaultPlan::new(FaultPlanConfig::uniform(23, 600_000));
            let mut injector = PlannedInjector::new(plan);
            injector.begin_matrix_mmo();
            injector
        };

        let mut per_tile = injector();
        let mut want = c;
        for (tk, (at, bt)) in a.iter().zip(&b).enumerate() {
            want = Simd2Unit::new().execute(OpKind::PlusMul, at, bt, &want);
            let coord = TileCoord::new(2, 5, tk);
            per_tile.inject_mmo_at(coord, OpKind::PlusMul, want.as_flat_mut(), 16);
        }

        let mut packed = FaultySimd2Unit::new(Simd2Unit::new(), injector());
        let flat = |tiles: &[Tile<16>]| -> Vec<f32> {
            let mut xs: Vec<f32> = tiles.iter().flat_map(|t| t.as_flat().to_vec()).collect();
            packed.quantize_packed(&mut xs);
            xs
        };
        let (qa, qb) = (flat(&a), flat(&b));
        let mut got = c;
        packed.execute_chain((2, 5), OpKind::PlusMul, &qa, &qb, &mut got);

        assert!(per_tile.injected() > 0, "the plan must strike");
        assert_eq!(packed.injector().log(), per_tile.log());
        assert_eq!(packed.injector().mmo_sites(), 4);
        let bits = |t: &Tile<16>| t.as_flat().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&want));
    }

    #[test]
    fn an_empty_chain_leaves_the_seed_and_visits_no_site() {
        let injector = PlannedInjector::new(always_plan());
        let mut unit = FaultySimd2Unit::new(Simd2Unit::new(), injector);
        for (op, c, seeded) in [
            (OpKind::OrAnd, 2.0, 1.0),
            (OpKind::MinPlus, f32::NAN, f32::INFINITY),
            (OpKind::PlusMul, 3.5, 3.5),
        ] {
            let mut acc = Tile::<16>::splat(c);
            unit.execute_chain((1, 2), op, &[], &[], &mut acc);
            assert_eq!(acc, Tile::splat(seeded), "{op}");
        }
        assert_eq!(unit.injector().mmo_sites(), 0);
    }

    #[test]
    fn pristine_and_faulty_units_both_shard() {
        let unit = Simd2Unit::new();
        assert_eq!(MmoUnit::shard(&unit), Some(unit));
        let faulty = FaultySimd2Unit::new(unit, PlannedInjector::new(always_plan()));
        let shard = faulty.shard().unwrap();
        assert_eq!(shard.injector().injected(), 0);
        assert_eq!(shard.injector().plan(), faulty.injector().plan());
    }

    #[test]
    fn coordinate_draws_are_order_independent() {
        let plan = FaultPlan::new(FaultPlanConfig::uniform(13, 400_000));
        let coords: Vec<TileCoord> = (0..4)
            .flat_map(|ti| {
                (0..4).flat_map(move |tj| (0..3).map(move |tk| TileCoord::new(ti, tj, tk)))
            })
            .collect();
        let run = |order: &[TileCoord]| {
            let mut inj = PlannedInjector::new(plan);
            inj.begin_matrix_mmo();
            let mut log = Vec::new();
            for &c in order {
                let mut d = vec![1.0f32; 256];
                if let Some(k) = inj.inject_mmo_at(c, OpKind::PlusMul, &mut d, 16) {
                    log.push((c, k));
                }
            }
            log.sort_by_key(|&(c, _)| c);
            log
        };
        let forward = run(&coords);
        let mut reversed = coords.clone();
        reversed.reverse();
        assert!(!forward.is_empty());
        assert_eq!(
            forward,
            run(&reversed),
            "same tiles must draw the same faults"
        );
    }

    #[test]
    fn seeded_campaign_is_identical_under_scalar_and_simd_kernels() {
        // Fault injection addresses output coordinates after the unit's
        // datapath has produced its (bit-identical across ISAs) tile, so
        // a seeded campaign must strike the same sites with the same
        // values no matter which vector tier the unit selected. This is
        // the regression gate for new kernel tiers: a tier that changed
        // a single output bit would desynchronize nothing in the fault
        // draws (they are coordinate-keyed) but would surface here as a
        // diverging faulted output.
        let run = |unit: Simd2Unit| {
            let plan = FaultPlan::new(
                FaultPlanConfig::new(97)
                    .with_bit_flip_ppm(150_000)
                    .with_stuck_lane_ppm(50_000)
                    .with_transient_nan_ppm(80_000),
            );
            let mut faulty = FaultySimd2Unit::new(unit, PlannedInjector::new(plan));
            MmoUnit::begin_matrix_mmo(&mut faulty);
            let mut outputs = Vec::new();
            for ti in 0..4u32 {
                for tj in 0..4u32 {
                    let mut acc = Tile::<16>::splat(0.0);
                    for tk in 0..3u32 {
                        let a = Tile::<16>::from_fn(|r, c| {
                            (r + c + ti as usize + tk as usize) as f32 * 0.25
                        });
                        let b =
                            Tile::<16>::from_fn(|r, c| (r * 16 + c + tj as usize) as f32 * 0.01);
                        acc = fold_at(&mut faulty, TileCoord { ti, tj, tk }, &a, &b, &acc);
                    }
                    outputs.push(acc);
                }
            }
            (
                outputs,
                faulty.injector().log(),
                faulty.injector().injected(),
            )
        };
        let (d_scalar, log_scalar, n_scalar) =
            run(Simd2Unit::new().with_kernel_isa(KernelIsa::Scalar));
        let (d_simd, log_simd, n_simd) = run(Simd2Unit::new());
        assert!(n_scalar > 0, "full-ish rate campaign must strike");
        assert_eq!(log_scalar, log_simd, "fault logs diverged across ISAs");
        assert_eq!(n_scalar, n_simd);
        for (i, (s, v)) in d_scalar.iter().zip(&d_simd).enumerate() {
            for (r, c, x) in s.iter() {
                assert_eq!(
                    x.to_bits(),
                    v.get(r, c).to_bits(),
                    "tile {i} ({r},{c}) diverged across ISAs"
                );
            }
        }
    }

    #[test]
    fn begin_matrix_mmo_refreshes_coordinate_draws() {
        // Same coordinate, consecutive matrix mmos: the draws must be
        // independent (≈40% rate over 64 sequences sees both outcomes).
        let plan = FaultPlan::new(FaultPlanConfig::uniform(21, 400_000));
        let mut inj = PlannedInjector::new(plan);
        let mut outcomes = Vec::new();
        for _ in 0..64 {
            inj.begin_matrix_mmo();
            let mut d = vec![1.0f32; 256];
            outcomes.push(inj.inject_mmo_at(TileCoord::new(0, 0, 0), OpKind::PlusMul, &mut d, 16));
        }
        assert!(outcomes.iter().any(Option::is_some));
        assert!(outcomes.iter().any(Option::is_none));
    }

    #[test]
    fn absorbing_shards_in_panel_order_matches_sequential_log() {
        let plan = FaultPlan::new(FaultPlanConfig::uniform(5, 300_000));
        let mut seq = PlannedInjector::new(plan);
        seq.begin_matrix_mmo();
        let mut par = PlannedInjector::new(plan);
        par.begin_matrix_mmo();
        let mut shards: Vec<PlannedInjector> = (0..3).map(|_| par.shard()).collect();
        for ti in 0..6u32 {
            for tj in 0..4u32 {
                for tk in 0..2u32 {
                    let coord = TileCoord { ti, tj, tk };
                    let mut d = vec![1.0f32; 256];
                    seq.inject_mmo_at(coord, OpKind::MinPlus, &mut d, 16);
                    let mut d2 = vec![1.0f32; 256];
                    // Panel p owns tile rows 2p..2p+2.
                    shards[(ti / 2) as usize].inject_mmo_at(coord, OpKind::MinPlus, &mut d2, 16);
                }
            }
        }
        for shard in shards {
            par.absorb(shard);
        }
        assert_eq!(par.log(), seq.log());
        assert_eq!(par.injected(), seq.injected());
        assert_eq!(par.mmo_sites(), seq.mmo_sites());
        assert!(par.injected() > 0);
    }

    #[test]
    fn log_is_a_bounded_ring_with_drop_accounting() {
        let mut inj = PlannedInjector::with_log_capacity(always_plan(), 8);
        inj.begin_matrix_mmo();
        for tk in 0..20u32 {
            let mut d = vec![1.0f32; 256];
            inj.inject_mmo_at(
                TileCoord::new(0, 0, tk as usize),
                OpKind::PlusMul,
                &mut d,
                16,
            );
        }
        assert_eq!(inj.injected(), 20);
        assert_eq!(inj.dropped(), 12);
        let log = inj.log();
        assert_eq!(log.len(), 8);
        // The ring keeps the most recent entries, oldest first.
        let kept: Vec<u32> = log.iter().map(|e| e.coord.unwrap().tk).collect();
        assert_eq!(kept, (12..20).collect::<Vec<_>>());
        assert_eq!(inj.log_capacity(), 8);
    }

    #[test]
    fn coordinate_site_keys_avoid_visit_order_collisions() {
        // Visit-order sites are small integers; coordinate keys must not
        // land in that range for any plausible grid.
        for seq in 1..=4u64 {
            for ti in 0..8 {
                for tj in 0..8 {
                    for tk in 0..8 {
                        let coord = MmoCoord {
                            mmo_seq: seq,
                            ti,
                            tj,
                            tk,
                        };
                        assert!(coord.site_key() > 1 << 20);
                    }
                }
            }
        }
    }

    #[test]
    fn panic_probe_panics_only_on_shards() {
        let a = Tile::<16>::from_fn(|r, c| (r + c) as f32);
        let b = Tile::<16>::splat(1.0);
        let c = Tile::<16>::splat(0.0);
        let mut parent = PanicProbeUnit::new(Simd2Unit::new(), 1);
        // Parent (sequential) execution is clean, even at the armed row.
        let clean = fold_at(&mut parent, TileCoord::new(1, 0, 0), &a, &b, &c);
        assert_eq!(clean, Simd2Unit::new().execute(OpKind::PlusMul, &a, &b, &c));
        let mut shard = parent.shard().unwrap();
        // A shard is clean off the armed row…
        fold_at(&mut shard, TileCoord::new(0, 0, 0), &a, &b, &c);
        // …and panics on it.
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            fold_at(&mut shard, TileCoord::new(1, 2, 0), &a, &b, &c);
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.starts_with(PANIC_PROBE_PAYLOAD), "{msg}");
    }

    #[test]
    fn telemetry_events_match_injector_counters() {
        let ring = simd2_trace::RingSink::shared();
        let mut inj = PlannedInjector::with_log_capacity(always_plan(), 4)
            .with_tracer(Tracer::to(ring.clone()));
        inj.begin_matrix_mmo();
        for tk in 0..10usize {
            let mut d = vec![1.0f32; 256];
            inj.inject_mmo_at(TileCoord::new(0, 0, tk), OpKind::MinPlus, &mut d, 16);
        }
        let events = ring.events();
        let injected = events
            .iter()
            .filter(|e| e.is_stage(span::FAULT, "injected"))
            .count() as u64;
        let dropped = events
            .iter()
            .filter(|e| e.is_stage(span::FAULT, "dropped"))
            .count() as u64;
        assert_eq!(injected, inj.injected());
        assert_eq!(dropped, inj.dropped());
        assert!(dropped > 0, "capacity 4 with 10 full-rate injections");
        // Injected events carry the coordinate address and kind label.
        let first = events
            .iter()
            .find(|e| e.is_stage(span::FAULT, "injected"))
            .unwrap();
        assert_eq!(first.u64("mmo_seq"), Some(1));
        assert!(first.str_value("fault_kind").is_some());
        assert_eq!(first.str_value("op"), Some(OpKind::MinPlus.name()));
    }

    #[test]
    fn shards_share_the_parent_tracer() {
        let ring = simd2_trace::RingSink::shared();
        let mut parent = PlannedInjector::new(always_plan()).with_tracer(Tracer::to(ring.clone()));
        parent.begin_matrix_mmo();
        let mut shard = parent.shard();
        let mut d = vec![1.0f32; 256];
        shard.inject_mmo_at(TileCoord::new(0, 0, 0), OpKind::PlusMul, &mut d, 16);
        assert_eq!(ring.len(), 1, "shard events land in the parent sink");
        parent.absorb(shard);
        assert_eq!(parent.injected(), 1);
    }

    #[test]
    fn sticky_sites_defeat_retry_and_schedule_changes() {
        let plan = FaultPlan::new(FaultPlanConfig::new(5).with_sticky_ppm(1_000_000));
        let mut inj = PlannedInjector::new(plan);
        let coord = TileCoord::new(1, 2, 3);
        let strike = |inj: &mut PlannedInjector| {
            inj.begin_matrix_mmo();
            let mut d = vec![1.0f32; 256];
            let kind = inj.inject_mmo_at(coord, OpKind::PlusMul, &mut d, 16);
            if let Some(FaultKind::StickyNan { row, col }) = kind {
                assert!(d[row * 16 + col].is_nan(), "sticky site must poison d");
            }
            kind
        };
        let first = strike(&mut inj).expect("full-rate sticky strikes");
        assert!(matches!(first, FaultKind::StickyNan { .. }), "{first:?}");
        // A retry advances mmo_seq — transients would re-draw — but the
        // sticky defect re-strikes identically: retry cannot help.
        for _ in 0..4 {
            assert_eq!(strike(&mut inj), Some(first));
        }
        // Worker shards see the same defect (schedule independence), and
        // the log records the coordinate-only site key.
        let mut shard = inj.shard();
        let mut d = vec![1.0f32; 256];
        assert_eq!(
            shard.inject_mmo_at(coord, OpKind::PlusMul, &mut d, 16),
            Some(first)
        );
        let log = shard.log();
        assert_eq!(
            log[0].site,
            MmoCoord {
                mmo_seq: 0,
                ti: 1,
                tj: 2,
                tk: 3
            }
            .coord_key()
        );
        inj.absorb(shard);
        assert_eq!(inj.injected(), 6);
        // A different coordinate under the same full-rate plan draws its
        // own (also repeatable) defect.
        let other = TileCoord::new(2, 2, 3);
        let mut d = vec![1.0f32; 256];
        let elsewhere = inj.inject_mmo_at(other, OpKind::PlusMul, &mut d, 16);
        assert!(elsewhere.is_some());
    }

    #[test]
    fn vector_only_injection_disarms_on_a_scalar_pin() {
        let a = Tile::<16>::from_fn(|r, c| (r + c) as f32 * 0.5);
        let b = Tile::<16>::splat(1.0);
        let c = Tile::<16>::splat(0.0);
        let mk = || {
            FaultySimd2Unit::new(Simd2Unit::new(), PlannedInjector::new(always_plan()))
                .with_vector_only(true)
        };
        let mut unit = mk();
        assert!(unit.vector_only());
        let armed = MmoUnit::kernel_isa(&unit) != KernelIsa::Scalar;
        MmoUnit::begin_matrix_mmo(&mut unit);
        fold_at(&mut unit, TileCoord::new(0, 0, 0), &a, &b, &c);
        assert_eq!(unit.injector().injected(), u64::from(armed));
        // Re-pin to scalar: injection stops and outputs are pristine.
        assert!(MmoUnit::repin_kernel(&mut unit, KernelIsa::Scalar));
        let before = unit.injector().injected();
        MmoUnit::begin_matrix_mmo(&mut unit);
        let d = fold_at(&mut unit, TileCoord::new(0, 0, 0), &a, &b, &c);
        assert_eq!(unit.injector().injected(), before, "scalar pin disarms");
        assert_eq!(d, Simd2Unit::new().execute(OpKind::PlusMul, &a, &b, &c));
        // Shards inherit the gate.
        let shard = unit.shard().unwrap();
        assert!(shard.vector_only());
        // Without the gate the same plan strikes on any tier.
        let mut ungated =
            FaultySimd2Unit::new(Simd2Unit::new().with_kernel_isa(KernelIsa::Scalar), {
                PlannedInjector::new(always_plan())
            });
        MmoUnit::begin_matrix_mmo(&mut ungated);
        fold_at(&mut ungated, TileCoord::new(0, 0, 0), &a, &b, &c);
        assert_eq!(ungated.injector().injected(), 1);
    }

    #[test]
    fn mem_fault_out_of_range_is_ignored() {
        // Defensive: apply_to_memory clamps rather than panics.
        let mut mem = vec![1.0f32; 4];
        apply_to_memory(FaultKind::MemBitFlip { word: 100, bit: 3 }, &mut mem);
        assert_eq!(mem, vec![1.0f32; 4]);
    }
}
