//! Functional model of the SIMD² unit datapath.
//!
//! Paper Figure 4(c): the unit takes fixed-size operand tiles, runs every
//! element pair through the configurable `⊗` ALU array, reduces partial
//! results through the configurable `⊕` tree, and reduces the accumulator
//! tile in. Inputs are fp16, accumulation is fp32 (§3.2).
//!
//! The `⊕` tree of Figures 3/5 is the datapath's *structure* — what
//! [`crate::area`] and [`crate::timing`] price — not a rounding order the
//! paper specifies. The functional model's rounding order is the one
//! fold every engine in the repo shares (`simd2_semiring::simd`): each
//! element starts from `C ⊕ id` and folds its `⊗` terms in ascending
//! `k`. For min/max/or that is indistinguishable from a tree; for `+` it
//! is the order under which a chain of tile instructions, a whole-row
//! sweep and a walk that skips annihilator terms are the same function.

use std::fmt;

use simd2_semiring::precision::quantize_int8;
use simd2_semiring::simd::{self, KernelIsa, CHAIN_ELEMS};
use simd2_semiring::OpKind;

use simd2_matrix::{Tile, ISA_TILE};

// The chain kernel is specialised for the ISA-visible tile.
const _: () = assert!(ISA_TILE == simd::CHAIN_TILE);

/// Error returned when a unit is asked to perform an operation its
/// datapath does not implement (e.g. `min-plus` on a plain MMA unit).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnsupportedOpError {
    op: OpKind,
    unit: &'static str,
}

impl fmt::Display for UnsupportedOpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} unit does not implement {}", self.unit, self.op)
    }
}

impl std::error::Error for UnsupportedOpError {}

/// Input operand precision handling of the functional datapath.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum PrecisionMode {
    /// Quantise `A`/`B` operands through fp16 before combining — the
    /// paper's design point, used to validate reduced-precision accuracy.
    #[default]
    Fp16Input,
    /// Keep operands in fp32 (the hypothetical 32-bit unit of Table 5(c)).
    Fp32Input,
    /// Symmetric signed int8 fixed-point operands at unit scale — the
    /// mode the paper evaluated and rejected because "fixed-precision
    /// format cannot converge to the same result as baseline fp32"
    /// (§3.2). Values saturate at ±127.
    Int8Input,
}

/// The SIMD² matrix unit: executes all nine operations on `N × N` tiles.
///
/// # Example
///
/// ```
/// use simd2_matrix::Tile;
/// use simd2_mxu::Simd2Unit;
/// use simd2_semiring::OpKind;
///
/// let unit = Simd2Unit::new();
/// let a = Tile::<4>::splat(1.0);
/// let b = Tile::<4>::splat(2.0);
/// let c = Tile::<4>::splat(f32::INFINITY);
/// let d = unit.execute(OpKind::MinPlus, &a, &b, &c);
/// assert_eq!(d.get(0, 0), 3.0); // min over k of (1 + 2)
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Simd2Unit {
    precision: PrecisionMode,
    isa: KernelIsa,
}

impl Default for Simd2Unit {
    fn default() -> Self {
        Self {
            precision: PrecisionMode::default(),
            isa: simd::selected_isa(),
        }
    }
}

impl Simd2Unit {
    /// A unit with the paper's default fp16-input data path and the
    /// widest tile kernel the host supports (honouring
    /// `SIMD2_FORCE_SCALAR`; the selection is made once per process).
    pub fn new() -> Self {
        Self::default()
    }

    /// A unit with the given input precision mode.
    pub fn with_precision(precision: PrecisionMode) -> Self {
        Self {
            precision,
            ..Self::default()
        }
    }

    /// This unit, re-pinned to the given kernel ISA (downgraded to
    /// [`KernelIsa::Scalar`] if the host cannot execute that tier).
    /// Used by the forced-scalar test legs and A/B identity checks.
    pub fn with_kernel_isa(self, isa: KernelIsa) -> Self {
        Self {
            isa: if isa.is_supported() {
                isa
            } else {
                KernelIsa::Scalar
            },
            ..self
        }
    }

    /// The unit's input precision mode.
    pub fn precision(&self) -> PrecisionMode {
        self.precision
    }

    /// The instruction set the unit's tile kernel executes with.
    pub fn kernel_isa(&self) -> KernelIsa {
        self.isa
    }

    /// Passes operand elements through the unit's input quantiser, in
    /// place — the input-stage registers of Figure 4(c). The quantiser is
    /// a pure per-element function, so applying it once to a packed
    /// operand panel and once per tile per use yield the same bits; the
    /// tiled engine does the former. The fp16 round trip runs on the
    /// unit's vector kernel when one is selected (bit-identical to the
    /// scalar quantiser — see [`simd::quantize_f16_slice`]).
    pub fn quantize_operands(&self, xs: &mut [f32]) {
        match self.precision {
            PrecisionMode::Fp32Input => {}
            PrecisionMode::Fp16Input => simd::quantize_f16_slice(self.isa, xs),
            PrecisionMode::Int8Input => {
                for x in xs {
                    *x = quantize_int8(*x, 1.0);
                }
            }
        }
    }

    /// Executes `D = C ⊕ (A ⊗ B)` on tiles.
    ///
    /// `A`/`B` elements pass through the input quantiser; every output
    /// element then starts from `C ⊕ id` and folds its `N` terms in
    /// ascending `k` in fp32, and the result is returned as a fresh tile.
    ///
    /// The tile runs through [`simd::mmo_tile`] on the kernel tier chosen
    /// at construction (AVX-512 / AVX2 / scalar), which resolves the
    /// operation to a monomorphized kernel exactly once per call — the
    /// inner `N³` loop contains no dynamic dispatch, no feature tests and
    /// no heap allocation. Every vector tier is bit-identical to the
    /// scalar kernel, which is also what any `N` other than the ISA
    /// tile's runs.
    pub fn execute<const N: usize>(
        &self,
        op: OpKind,
        a: &Tile<N>,
        b: &Tile<N>,
        c: &Tile<N>,
    ) -> Tile<N> {
        let (mut qa, mut qb) = (*a, *b);
        self.quantize_operands(qa.as_flat_mut());
        self.quantize_operands(qb.as_flat_mut());
        let mut d = Tile::splat(0.0);
        simd::mmo_tile(
            self.isa,
            op,
            qa.as_flat(),
            qb.as_flat(),
            c.as_flat(),
            d.as_flat_mut(),
            N,
        );
        d
    }

    /// Folds a whole `k` chain into `acc`: `acc ← acc ⊕ id`, then
    /// `acc ← acc ⊕ (Aₜ ⊗ Bₜ)` for each pair of flat row-major 16×16
    /// tiles of `a` and `b` in order, in one kernel call that keeps the
    /// accumulator inside the unit — bit-identical to one
    /// [`execute`](Self::execute) per pair. The
    /// operands must already have passed through
    /// [`quantize_operands`](Self::quantize_operands).
    ///
    /// # Panics
    ///
    /// Panics if `a` and `b` are not the same whole number of tiles.
    pub fn execute_chain(&self, op: OpKind, a: &[f32], b: &[f32], acc: &mut Tile<ISA_TILE>) {
        simd::mmo_chain(self.isa, op, a, b, acc.as_flat_mut());
    }

    /// Executes with an implicit accumulator tile holding the `⊕` identity
    /// (`D = ⊕ₖ (A ⊗ B)`).
    pub fn execute_no_acc<const N: usize>(&self, op: OpKind, a: &Tile<N>, b: &Tile<N>) -> Tile<N> {
        let c = Tile::splat(op.reduce_identity_f32());
        self.execute(op, a, b, &c)
    }
}

/// Grid coordinates of one tile-level mmo within a whole-matrix
/// operation: output tile `(ti, tj)`, reduction step `tk`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TileCoord {
    /// Output tile row.
    pub ti: u32,
    /// Output tile column.
    pub tj: u32,
    /// Reduction (k) tile index.
    pub tk: u32,
}

impl TileCoord {
    /// Builds the coordinate (indices are tile-grid indices, not
    /// element indices).
    pub fn new(ti: usize, tj: usize, tk: usize) -> Self {
        Self {
            ti: ti as u32,
            tj: tj as u32,
            tk: tk as u32,
        }
    }
}

/// Something that executes tile mmos — the seam that lets tiled
/// backends run over either a pristine or a fault-injected datapath.
pub trait MmoUnit: std::fmt::Debug {
    /// Whether the unit's output depends on operand bits alone — never
    /// on the tile coordinate it is handed or on the order tiles are
    /// visited in. A fact about the unit type, not a setting: an engine
    /// may run a coordinate-free unit's step through any schedule that
    /// folds the same terms (a row walk that skips annihilators, say, or
    /// the fp16 and FMA lanes its [`kernel_isa`](MmoUnit::kernel_isa)
    /// has, `simd2_semiring::simd::{HalfLanes, FmaLanes}`, on the tile
    /// pairs whose values they fold exactly), while a unit that injects
    /// faults or probes at coordinates keeps the default and is always
    /// walked tile by tile, every pair through
    /// [`execute_chain`](MmoUnit::execute_chain).
    const COORDINATE_FREE: bool = false;

    /// The pack hook: passes the elements of a packed operand chain
    /// through the unit's input quantiser, in place. Tiled backends call
    /// it once per packed chain — the `k` tiles of one `A` tile row, or
    /// of one tile column of a `B` strip — so quantisation stays the
    /// unit's decision but is paid per operand element, not per tile
    /// use. It must be a pure per-element function: how the elements
    /// are split between calls never changes their bits.
    fn quantize_packed(&self, xs: &mut [f32]);

    /// Folds one packed tile pair into `acc` at an explicit tile-grid
    /// coordinate: `acc ← acc ⊕ (a ⊗ b)` on flat row-major 16×16 tiles
    /// that have already passed through
    /// [`quantize_packed`](MmoUnit::quantize_packed) — the
    /// per-coordinate hook of the packed engine, where order-sensitive
    /// state (fault injection above all) keys off *where* the tile is.
    fn execute_packed_at(
        &mut self,
        coord: TileCoord,
        op: OpKind,
        a: &[f32],
        b: &[f32],
        acc: &mut Tile<ISA_TILE>,
    );

    /// Folds the whole `k` chain of output tile `(ti, tj)` into `acc`:
    /// `a` and `b` hold the tile's packed operand tiles for
    /// `tk = 0, 1, …` back to back. The default walks the chain one
    /// pair at a time through
    /// [`execute_packed_at`](MmoUnit::execute_packed_at), so every
    /// coordinate is visited in `tk` order; pure datapaths override it
    /// with a single kernel call that owns the loop. An empty chain
    /// (`k = 0`) visits no coordinate and leaves `acc ⊕ id`, the seed
    /// every non-empty chain starts from. A
    /// [coordinate-free](MmoUnit::COORDINATE_FREE) unit may receive an
    /// output tile's chain in runs — one call per run of the tile pairs
    /// an engine neither skips nor folds on fast lanes — which folds the
    /// same bits, because every call's seed `acc ⊕ id` is idempotent.
    fn execute_chain(
        &mut self,
        (ti, tj): (usize, usize),
        op: OpKind,
        a: &[f32],
        b: &[f32],
        acc: &mut Tile<ISA_TILE>,
    ) {
        if a.is_empty() {
            simd::mmo_chain(KernelIsa::Scalar, op, a, b, acc.as_flat_mut());
        }
        let pairs = a.chunks_exact(CHAIN_ELEMS).zip(b.chunks_exact(CHAIN_ELEMS));
        for (tk, (at, bt)) in pairs.enumerate() {
            self.execute_packed_at(TileCoord::new(ti, tj, tk), op, at, bt, acc);
        }
    }

    /// Marks the start of a new whole-matrix mmo (called once per
    /// backend-level `mmo`, before any tile executes and before any
    /// shards are taken).
    fn begin_matrix_mmo(&mut self) {}

    /// Whether the datapath quantises inputs below fp32.
    fn reduced_precision(&self) -> bool {
        self.precision() != PrecisionMode::Fp32Input
    }

    /// The instruction set the unit's tile kernel executes with: for
    /// telemetry, and, on a [coordinate-free](MmoUnit::COORDINATE_FREE)
    /// unit, the tier whose fast lanes an engine may fold pairs on.
    /// Fault injection addresses output *coordinates* after
    /// the datapath has produced its (kernel-independent) bits, so a
    /// campaign must be identical across ISAs; units without a vector
    /// kernel report [`KernelIsa::Scalar`].
    fn kernel_isa(&self) -> KernelIsa {
        KernelIsa::Scalar
    }

    /// Re-pins the unit's tile kernel to `isa` — the degradation seam a
    /// resilience layer uses to retreat from a suspect vector tier to
    /// the scalar kernel. Returns whether the unit honoured the pin;
    /// units without a selectable kernel refuse (the default).
    fn repin_kernel(&mut self, isa: KernelIsa) -> bool {
        let _ = isa;
        false
    }

    /// Fault-log entries evicted from the unit's bounded ring buffer
    /// (the injector `dropped` counter); zero for pristine units.
    fn fault_dropped(&self) -> u64 {
        0
    }

    /// The input precision mode of the underlying datapath.
    fn precision(&self) -> PrecisionMode;

    /// A per-worker shard of this unit for panel-parallel execution, or
    /// `None` when the unit cannot be replicated across workers.
    ///
    /// The pristine [`Simd2Unit`] is pure (same inputs ⇒ same output
    /// tile, no internal state), so a shard is a plain copy. A
    /// fault-injecting unit shards its coordinate-addressed injector:
    /// every shard draws the same fault for the same tile, so panel
    /// assignment cannot change a campaign. Units whose state is
    /// genuinely visit-order-dependent return `None` and force the
    /// sequential schedule.
    fn shard(&self) -> Option<Self>
    where
        Self: Sized,
    {
        None
    }

    /// Merges a worker shard's state (fault logs, telemetry) back after
    /// the parallel join. Shards must be absorbed in the sequential
    /// schedule's visit order so the merged log is identical to its log.
    fn absorb(&mut self, shard: Self)
    where
        Self: Sized,
    {
        let _ = shard;
    }
}

impl MmoUnit for Simd2Unit {
    const COORDINATE_FREE: bool = true;

    fn quantize_packed(&self, xs: &mut [f32]) {
        self.quantize_operands(xs);
    }

    fn execute_packed_at(
        &mut self,
        _coord: TileCoord,
        op: OpKind,
        a: &[f32],
        b: &[f32],
        acc: &mut Tile<ISA_TILE>,
    ) {
        Simd2Unit::execute_chain(self, op, a, b, acc);
    }

    fn execute_chain(
        &mut self,
        _tile: (usize, usize),
        op: OpKind,
        a: &[f32],
        b: &[f32],
        acc: &mut Tile<ISA_TILE>,
    ) {
        Simd2Unit::execute_chain(self, op, a, b, acc);
    }

    fn precision(&self) -> PrecisionMode {
        Simd2Unit::precision(self)
    }

    fn kernel_isa(&self) -> KernelIsa {
        Simd2Unit::kernel_isa(self)
    }

    fn repin_kernel(&mut self, isa: KernelIsa) -> bool {
        *self = self.with_kernel_isa(isa);
        true
    }

    fn shard(&self) -> Option<Self> {
        Some(*self)
    }
}

/// A conventional MMA-only matrix unit (the Tensor-Core baseline): same
/// datapath, but only [`OpKind::PlusMul`] is wired.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MmaUnit {
    inner: Simd2Unit,
}

impl MmaUnit {
    /// A baseline MMA unit with the fp16-input data path.
    pub fn new() -> Self {
        Self::default()
    }

    /// Executes `D = C + A·B`.
    ///
    /// # Errors
    ///
    /// Returns [`UnsupportedOpError`] for any operation other than
    /// [`OpKind::PlusMul`] — this is exactly the limitation that forces
    /// SIMD²-ized algorithms back onto CUDA cores on real hardware.
    pub fn execute<const N: usize>(
        &self,
        op: OpKind,
        a: &Tile<N>,
        b: &Tile<N>,
        c: &Tile<N>,
    ) -> Result<Tile<N>, UnsupportedOpError> {
        if op != OpKind::PlusMul {
            return Err(UnsupportedOpError { op, unit: "MMA" });
        }
        Ok(self.inner.execute(op, a, b, c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simd2_matrix::reference;
    use simd2_matrix::Matrix;
    use simd2_semiring::precision::quantize_f16;
    use simd2_semiring::ALL_OPS;

    fn tiles() -> (Tile<4>, Tile<4>, Tile<4>) {
        // Values chosen fp16-exact so the quantiser is transparent and the
        // reference (full-precision) model agrees bit-for-bit.
        let a = Tile::<4>::from_fn(|r, c| 0.25 * (r * 4 + c + 1) as f32);
        let b = Tile::<4>::from_fn(|r, c| 0.5 * ((r + 2 * c) % 5) as f32 + 0.25);
        let c = Tile::<4>::from_fn(|r, c| 0.125 * (r + c) as f32 + 0.5);
        (a, b, c)
    }

    #[test]
    fn matches_reference_model_on_all_ops() {
        let unit = Simd2Unit::new();
        let (a, b, c) = tiles();
        for op in ALL_OPS {
            let d = unit.execute(op, &a, &b, &c);
            let dm = reference::mmo(op, &a.to_matrix(), &b.to_matrix(), &c.to_matrix()).unwrap();
            let want = Tile::<4>::try_from_matrix(&dm).unwrap();
            assert_tiles_bit_identical(&d, &want, &format!("{op}"));
        }
    }

    #[test]
    fn quantizes_fp16_inputs() {
        let unit = Simd2Unit::new();
        // 0.1 is not fp16-representable.
        let a = Tile::<4>::splat(0.1);
        let b = Tile::<4>::splat(1.0);
        let c = Tile::<4>::splat(0.0);
        let d = unit.execute(OpKind::PlusMul, &a, &b, &c);
        let q = quantize_f16(0.1);
        assert_eq!(d.get(0, 0), q * 4.0);
        assert_ne!(d.get(0, 0), 0.1 * 4.0);
    }

    #[test]
    fn fp32_mode_skips_quantisation() {
        let unit = Simd2Unit::with_precision(PrecisionMode::Fp32Input);
        assert_eq!(unit.precision(), PrecisionMode::Fp32Input);
        let a = Tile::<4>::splat(0.1);
        let b = Tile::<4>::splat(1.0);
        let c = Tile::<4>::splat(0.0);
        let d = unit.execute(OpKind::PlusMul, &a, &b, &c);
        assert_eq!(d.get(0, 0), 0.1f32 + 0.1 + 0.1 + 0.1);
    }

    #[test]
    fn int8_mode_saturates_long_distances() {
        // Distances beyond 127 collapse to the saturation point — the
        // non-convergence failure that ruled int8 out (§3.2).
        let unit = Simd2Unit::with_precision(PrecisionMode::Int8Input);
        let a = Tile::<4>::splat(100.0);
        let b = Tile::<4>::splat(60.0);
        let c = Tile::<4>::splat(f32::INFINITY);
        let d = unit.execute(OpKind::MinPlus, &a, &b, &c);
        // True min-plus value is 160; int8 saturation yields 127+127=254?
        // No: each operand clamps to 100 and 60 (in range), sum 160 is
        // computed in fp32 — but a 200-weight edge would clamp:
        let big = Tile::<4>::splat(200.0);
        let d2 = unit.execute(OpKind::MinPlus, &big, &b, &c);
        assert_eq!(d.get(0, 0), 160.0);
        assert_eq!(d2.get(0, 0), 127.0 + 60.0, "200 saturated to 127");
        // Infinities still encode "no edge".
        let inf = Tile::<4>::splat(f32::INFINITY);
        let d3 = unit.execute(OpKind::MinPlus, &inf, &b, &c);
        assert!(d3.iter().all(|(_, _, v)| v == f32::INFINITY));
    }

    #[test]
    fn accumulator_seeds_the_fold() {
        let unit = Simd2Unit::new();
        let a = Tile::<4>::splat(1.0);
        let b = Tile::<4>::splat(1.0);
        // min-plus: paths of length 2 each; C holds a better value.
        let c = Tile::<4>::splat(1.5);
        let d = unit.execute(OpKind::MinPlus, &a, &b, &c);
        assert_eq!(d.get(2, 3), 1.5);
    }

    #[test]
    fn no_acc_variant_seeds_identity() {
        let unit = Simd2Unit::new();
        let (a, b, _) = tiles();
        for op in ALL_OPS {
            let c = Tile::<4>::splat(op.reduce_identity_f32());
            assert_eq!(
                unit.execute_no_acc(op, &a, &b),
                unit.execute(op, &a, &b, &c),
                "{op}"
            );
        }
    }

    #[test]
    fn mma_unit_rejects_extensions() {
        let mma = MmaUnit::new();
        let (a, b, c) = tiles();
        assert!(mma.execute(OpKind::PlusMul, &a, &b, &c).is_ok());
        for op in simd2_semiring::EXTENDED_OPS {
            let err = mma.execute(op, &a, &b, &c).unwrap_err();
            assert!(err.to_string().contains(op.name()), "{op}");
        }
    }

    #[test]
    fn mma_unit_matches_simd2_unit_on_plus_mul() {
        let mma = MmaUnit::new();
        let unit = Simd2Unit::new();
        let (a, b, c) = tiles();
        assert_eq!(
            mma.execute(OpKind::PlusMul, &a, &b, &c).unwrap(),
            unit.execute(OpKind::PlusMul, &a, &b, &c)
        );
    }

    #[test]
    fn isa_tile_shape_works_too() {
        // The 16×16 ISA-visible shape runs through the same datapath.
        let unit = Simd2Unit::new();
        let a = Tile::<16>::from_fn(|r, c| ((r + c) % 7) as f32);
        let b = Tile::<16>::from_fn(|r, c| ((r * c) % 5) as f32);
        let c = Tile::<16>::splat(f32::INFINITY);
        let d = unit.execute(OpKind::MinPlus, &a, &b, &c);
        let want = reference::mmo(
            OpKind::MinPlus,
            &a.to_matrix(),
            &b.to_matrix(),
            &c.to_matrix(),
        )
        .unwrap();
        assert_eq!(d.to_matrix(), want);
    }

    /// Adversarial element pool: NaN, ±0, infinities, a denormal, and
    /// values that quantise inexactly — everything the vector lowerings
    /// could get wrong relative to the scalar oracle.
    fn tricky(i: usize) -> f32 {
        const POOL: [f32; 12] = [
            0.0,
            -0.0,
            1.0,
            -2.5,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            1.0e-40,
            0.1,
            65504.0,
            -3.75,
            7.0,
        ];
        POOL[i % POOL.len()]
    }

    fn assert_tiles_bit_identical<const N: usize>(got: &Tile<N>, want: &Tile<N>, ctx: &str) {
        for (i, (g, w)) in got.as_flat().iter().zip(want.as_flat()).enumerate() {
            assert!(
                simd::same_bits(*g, *w),
                "{ctx}: element {i}: {g:e} vs {w:e}"
            );
        }
    }

    fn kernel_identity_case<const N: usize>() {
        let a = Tile::<N>::from_fn(|r, c| tricky(r * N + c));
        let b = Tile::<N>::from_fn(|r, c| tricky(3 * r + 5 * c + 1));
        for precision in [PrecisionMode::Fp16Input, PrecisionMode::Fp32Input] {
            for op in ALL_OPS {
                let c = Tile::<N>::from_fn(|r, cc| {
                    if (r + cc) % 3 == 0 {
                        op.reduce_identity_f32()
                    } else {
                        tricky(7 * r + cc + 2)
                    }
                });
                let scalar = Simd2Unit::with_precision(precision)
                    .with_kernel_isa(KernelIsa::Scalar)
                    .execute(op, &a, &b, &c);
                for isa in KernelIsa::ALL {
                    if !isa.is_supported() {
                        continue;
                    }
                    let unit = Simd2Unit::with_precision(precision).with_kernel_isa(isa);
                    let got = unit.execute(op, &a, &b, &c);
                    assert_tiles_bit_identical(
                        &got,
                        &scalar,
                        &format!("{op} N={N} {isa} {precision:?}"),
                    );
                }
            }
        }
    }

    #[test]
    fn every_supported_isa_is_bit_identical_to_scalar() {
        // Only the ISA tile (16) has vector leaves; every other side
        // must come out the same from whichever tier is asked.
        kernel_identity_case::<1>();
        kernel_identity_case::<3>();
        kernel_identity_case::<4>();
        kernel_identity_case::<11>();
        kernel_identity_case::<16>();
        kernel_identity_case::<21>();
    }

    #[test]
    fn chain_over_quantised_panels_equals_per_tile_execute() {
        // Quantise once + one chain call == execute per tile pair (which
        // quantises every call), in every precision mode and on every
        // tier — the identity the packed engine rests on.
        let a: Vec<Tile<16>> = (0..3)
            .map(|t| Tile::from_fn(|r, c| tricky(t + r * 16 + c)))
            .collect();
        let b: Vec<Tile<16>> = (0..3)
            .map(|t| Tile::from_fn(|r, c| tricky(5 * t + 3 * r + 7 * c + 1)))
            .collect();
        let flat = |tiles: &[Tile<16>]| -> Vec<f32> {
            tiles.iter().flat_map(|t| t.as_flat().to_vec()).collect()
        };
        for precision in [
            PrecisionMode::Fp16Input,
            PrecisionMode::Fp32Input,
            PrecisionMode::Int8Input,
        ] {
            for isa in KernelIsa::ALL.into_iter().filter(|isa| isa.is_supported()) {
                let unit = Simd2Unit::with_precision(precision).with_kernel_isa(isa);
                let (mut qa, mut qb) = (flat(&a), flat(&b));
                unit.quantize_operands(&mut qa);
                unit.quantize_operands(&mut qb);
                for op in ALL_OPS {
                    let c = Tile::<16>::from_fn(|r, cc| tricky(11 * r + cc + 2));
                    let mut want = c;
                    for (at, bt) in a.iter().zip(&b) {
                        want = unit.execute(op, at, bt, &want);
                    }
                    let mut got = c;
                    unit.execute_chain(op, &qa, &qb, &mut got);
                    assert_tiles_bit_identical(&got, &want, &format!("{op} {isa} {precision:?}"));
                }
            }
        }
    }

    #[test]
    fn default_unit_reports_the_selected_isa() {
        let unit = Simd2Unit::new();
        assert_eq!(unit.kernel_isa(), simd::selected_isa());
        assert!(unit.kernel_isa().is_supported());
        let forced = unit.with_kernel_isa(KernelIsa::Scalar);
        assert_eq!(forced.kernel_isa(), KernelIsa::Scalar);
        assert_eq!(forced.precision(), unit.precision());
    }

    #[test]
    fn with_kernel_isa_downgrades_unsupported_tiers_to_scalar() {
        for isa in KernelIsa::ALL {
            let unit = Simd2Unit::new().with_kernel_isa(isa);
            let want = if isa.is_supported() {
                isa
            } else {
                KernelIsa::Scalar
            };
            assert_eq!(unit.kernel_isa(), want, "{isa}");
        }
    }

    #[test]
    fn infinities_propagate_correctly_for_min_plus() {
        let unit = Simd2Unit::new();
        // A row entirely disconnected: +inf + anything = +inf, min-reduce
        // over +inf = +inf.
        let a = Tile::<4>::splat(f32::INFINITY);
        let b = Tile::<4>::splat(1.0);
        let c = Tile::<4>::splat(f32::INFINITY);
        let d = unit.execute(OpKind::MinPlus, &a, &b, &c);
        assert!(d.iter().all(|(_, _, v)| v == f32::INFINITY));
    }

    /// Matrix helper for doc parity: the unit applied over a whole matrix
    /// equals the reference mmo when the matrix is exactly one tile.
    #[test]
    fn single_tile_matrix_parity() {
        let unit = Simd2Unit::new();
        let m = Matrix::from_fn(4, 4, |r, c| (r * 4 + c) as f32 * 0.25);
        let a = Tile::<4>::try_from_matrix(&m).unwrap();
        let d = unit.execute_no_acc(OpKind::MaxMin, &a, &a);
        let c = Matrix::filled(4, 4, f32::NEG_INFINITY);
        let want = reference::mmo(OpKind::MaxMin, &m, &m, &c).unwrap();
        assert_eq!(d.to_matrix(), want);
    }
}
