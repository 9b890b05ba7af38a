//! Vectorized semiring tile kernels with runtime CPU-feature dispatch.
//!
//! Every kernel here computes one reduction: each output element starts
//! from `acc₀ = c[i][j] ⊕ id` and folds `acc ← acc ⊕ (a[i][k] ⊗ b[k][j])`
//! for `k` ascending, `⊗` and `⊕` as two roundings. The seed is one `⊕`
//! with the op's identity: it turns a `-0.0` accumulator into `+0.0` for
//! the `+` ops, a non-canonical truthy one into `1.0` for or-and and a
//! NaN into the identity for the min/max ops, and it is idempotent, so
//! a chain of tile MMOs — each seeding the accumulator the last one
//! left — is one long fold and the tile side stops mattering. That
//! computation is embarrassingly parallel across output *columns* `j`,
//! so the vector kernels keep one vector lane per output column: each
//! `k` step broadcasts `a[i][k]`, loads a contiguous row slice of `B`
//! and applies the vector `⊗` then `⊕`. Lanes never interact, so every
//! lane reproduces the scalar kernel's operation order — and therefore
//! its rounding — bit for bit.
//!
//! Three entries share it. [`mmo_chain`] is specialised for the
//! ISA-visible 16×16 tile and owns the whole `k` loop of one output
//! tile: it reads contiguous chains of pre-quantised operand tiles and,
//! because a fold is one dependent `⊕` per term, its x86 leaves
//! interleave the output rows of a register-resident accumulator block
//! per `k` step; min-max and max-min chains also fold on fp16 lanes
//! ([`HalfLanes`]) where an engine hands them fp16 images of operands
//! that fit, and plus-mul chains fold each term with one fused
//! multiply-add ([`FmaLanes`]) on tile pairs that are finite and on the
//! fp16 lattice. [`mmo_tile`] at that side is a chain of one; any other
//! side — which only tests reach — takes the scalar leaf. [`sweep_row`]
//! is the sparse engine's row kernel: one output row folds an explicit
//! `(k, value)` walk over rows of a dense `B`, so whichever
//! representation supplied the walk, a row seeded with `c ⊕ id` equals
//! the dense fold bit for bit wherever the skipped terms are neutral.
//! Beside them, [`scan`] reads the [`Scan`] facts off operand elements
//! — how many differ from an annihilator, whether any carries a sign
//! bit, the largest magnitude — from which an engine decides whether
//! skipping an annihilator's terms is exact, and [`compact`] writes out
//! the elements that differ and their indices: the rows of a CSR image,
//! sized from the count the scan took. Or-and's bit walk has three
//! leaves of its own: [`truthy_bits`] turns a row into a bit row,
//! [`or_rows`] ORs the rows of a bit table an `A` row's nibbles select
//! into an accumulator, and [`bits_to_f32`] writes a bit row out as
//! `1.0` / `0.0`.
//!
//! # Dispatch
//!
//! [`CpuFeatures::detect`] probes the host once (cached); [`selected_isa`]
//! picks the widest supported [`KernelIsa`], honouring the
//! `SIMD2_FORCE_SCALAR` environment variable (read once per process).
//! Every entry takes the tier as its first argument: a caller holds one
//! [`KernelIsa`] — the `simd2-mxu` unit freezes its tier at
//! construction, one selection per backend, zero dynamic feature tests
//! on the tile path — and hands it to each call. Each entry is safe: it
//! validates slice shapes and re-checks feature support before entering
//! a vector leaf, so a deserialized or hand-built ISA value can never
//! reach an instruction the host lacks (it falls back to the scalar
//! kernel instead).
//!
//! # Safety contract
//!
//! All `unsafe` in this crate lives in the `x86` submodule, as
//! `#[target_feature]` leaf functions with two documented preconditions:
//! the feature is present on the host (checked by the dispatcher), and
//! the slices have the shapes the entry asserted — whole 16×16 tiles for
//! [`mmo_chain`] and [`FmaLanes::mmo_chain`], a bit table that holds
//! every row a pick can select for [`or_rows`]; the [`sweep_row`],
//! [`scan`], [`compact`], [`truthy_bits`] and [`bits_to_f32`] leaves,
//! the [`HalfLanes`] leaves and
//! [`FmaLanes::fits`] have no shape precondition (every vector access
//! goes through a bounds-checked fixed-size chunk). A [`HalfLanes`] or
//! [`FmaLanes`] value is made only after the feature probe, so holding
//! one is the guard its leaves are entered behind.
//! Leaves are compiled under `#[deny(unsafe_op_in_unsafe_fn)]`;
//! every interior `unsafe` block carries its own justification.
//!
//! # Bit identity
//!
//! The scalar kernel is the oracle. The vector lowerings are chosen to
//! match it exactly, *not* to be fastest-possible: plus-mul's
//! term-by-term lowering uses separate multiply and add (a fused FMA
//! rounds once instead of twice, which diverges from the scalar oracle
//! wherever the product is not exact in `f32`), and the min/max semirings wrap
//! `min_ps`/`max_ps` in a NaN-aware blend or mask reproducing the scalar
//! `⊗`/`⊕`, whose every case — NaN, `±0` tie — is pinned (`select_min` /
//! `select_max` in `typed.rs`). Where a cheaper lowering is the same
//! bits the x86 chain leaves take it, chosen by the op's type and the
//! operands in hand, never by a switch: or-and chains run on bit masks
//! and materialise `1.0`/`0.0` once, every min/max `⊕` folds on the bare
//! instruction (its first operand is the seeded accumulator, which is
//! never NaN), and the `⊗` of min-max / max-min drops its NaN handling
//! on tile pairs that hold no NaN — and, handed fp16 images of pairs
//! that hold no NaN and nothing off the fp16 lattice, runs on twice the
//! lanes ([`HalfLanes`]); a plus-mul chain fuses each term on tile pairs
//! that are finite and on the fp16 lattice, where every product is exact
//! in `f32` and one rounding is the oracle's two ([`FmaLanes`]). See DESIGN.md
//! § "SIMD kernel dispatch" for the full lowering table and the
//! arguments. The suites compare through
//! [`same_bits`], which says what "exactly" means for two NaNs.

mod scalar;
#[cfg(target_arch = "x86_64")]
mod x86;

use std::fmt;
use std::sync::OnceLock;

use crate::kernel::SemiringKernel;
use crate::typed::{MaxMin, MaxMul, MaxPlus, MinMax, MinMul, MinPlus, OrAnd, PlusMul, PlusNorm};
use crate::OpKind;

/// Side of the tiles [`mmo_chain`] is specialised for: the ISA-visible
/// 16×16 shape, a compile-time constant so the vector leaves keep a
/// block of accumulator rows in registers.
pub const CHAIN_TILE: usize = 16;

/// Elements of one [`CHAIN_TILE`]-sided tile.
pub const CHAIN_ELEMS: usize = CHAIN_TILE * CHAIN_TILE;

/// Output columns [`sweep_row`]'s vector leaves hold in registers
/// across a whole walk (four 16-lane or eight 8-lane accumulators).
pub const SWEEP_STRIP: usize = 64;

/// CPU features relevant to kernel selection, probed at runtime.
///
/// Only the features the kernel layer actually keys on are represented.
/// The AVX2 tier requires the whole Haswell-generation set: `f16c` is
/// what its fp16 quantiser converts with, and `fma` what its plus-mul
/// chain leaf fuses with on the tile pairs [`FmaLanes`] admit (see the
/// module docs on bit identity).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct CpuFeatures {
    /// AVX-512 Foundation (16-lane `f32` vectors).
    pub avx512f: bool,
    /// AVX2 (8-lane `f32` vectors).
    pub avx2: bool,
    /// Fused multiply-add (gates the AVX2 tier alongside `avx2`; the
    /// AVX2 [`FmaLanes`] fuse plus-mul terms with it).
    pub fma: bool,
    /// Half-precision conversion (gates the AVX2 tier alongside `avx2`;
    /// the vector fp16 quantiser is `vcvtps2ph` + `vcvtph2ps`).
    pub f16c: bool,
    /// AVX512-FP16 arithmetic on 32 half lanes per `zmm` (with the
    /// AVX-512BW and AVX-512VL it is specified on top of): what
    /// [`HalfLanes`] folds min-max and max-min chains with inside the
    /// AVX-512 tier. Not a tier of its own.
    pub avx512fp16: bool,
}

impl CpuFeatures {
    /// Probes the executing CPU.
    pub fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        {
            Self {
                avx512f: std::arch::is_x86_feature_detected!("avx512f"),
                avx2: std::arch::is_x86_feature_detected!("avx2"),
                fma: std::arch::is_x86_feature_detected!("fma"),
                f16c: std::arch::is_x86_feature_detected!("f16c"),
                avx512fp16: std::arch::is_x86_feature_detected!("avx512fp16")
                    && std::arch::is_x86_feature_detected!("avx512bw")
                    && std::arch::is_x86_feature_detected!("avx512vl"),
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            Self::default()
        }
    }
}

/// The detected features of this host, probed once per process.
pub fn cpu_features() -> CpuFeatures {
    static FEATURES: OnceLock<CpuFeatures> = OnceLock::new();
    *FEATURES.get_or_init(CpuFeatures::detect)
}

/// Instruction set a tile kernel executes with.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum KernelIsa {
    /// 16-lane AVX-512F kernels (one vector per 16-wide tile row).
    Avx512,
    /// 8-lane AVX2 kernels (requires FMA and F16C to be present as well).
    Avx2,
    /// The portable scalar kernel — the bit-identity oracle, and what
    /// every non-x86 host runs (its column-wise fold is a loop the
    /// compiler vectorises for the target's baseline vector unit).
    Scalar,
}

impl KernelIsa {
    /// Every ISA tier, widest first (the selection preference order).
    pub const ALL: [KernelIsa; 3] = [KernelIsa::Avx512, KernelIsa::Avx2, KernelIsa::Scalar];

    /// Stable lower-case name used in telemetry and bench output.
    pub fn name(self) -> &'static str {
        match self {
            KernelIsa::Avx512 => "avx512",
            KernelIsa::Avx2 => "avx2",
            KernelIsa::Scalar => "scalar",
        }
    }

    /// `f32` lanes per vector register on this tier.
    pub fn lanes(self) -> usize {
        match self {
            KernelIsa::Avx512 => 16,
            KernelIsa::Avx2 => 8,
            KernelIsa::Scalar => 1,
        }
    }

    /// Whether the executing CPU can run this tier.
    pub fn is_supported(self) -> bool {
        let f = cpu_features();
        match self {
            KernelIsa::Avx512 => f.avx512f,
            KernelIsa::Avx2 => f.avx2 && f.fma && f.f16c,
            KernelIsa::Scalar => true,
        }
    }
}

impl fmt::Display for KernelIsa {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

fn force_scalar() -> bool {
    std::env::var_os("SIMD2_FORCE_SCALAR").is_some_and(|v| !v.is_empty() && v != "0")
}

/// The widest ISA the host supports, honouring `SIMD2_FORCE_SCALAR`.
///
/// Computed once per process and cached: backends constructed afterwards
/// all observe the same choice, and the environment variable is only read
/// at first use (set it before constructing any backend).
pub fn selected_isa() -> KernelIsa {
    static SELECTED: OnceLock<KernelIsa> = OnceLock::new();
    *SELECTED.get_or_init(|| {
        if force_scalar() {
            return KernelIsa::Scalar;
        }
        KernelIsa::ALL
            .into_iter()
            .find(|isa| isa.is_supported())
            .unwrap_or(KernelIsa::Scalar)
    })
}

/// Resolves a dynamic [`OpKind`] to its monomorphized kernel type once
/// per call: `$body` is instantiated with `$K` bound to each of the nine
/// semirings.
macro_rules! with_kernel {
    ($op:expr, $K:ident => $body:expr) => {
        with_kernel!(@arms $op, $K, $body,
            PlusMul MinPlus MaxPlus MinMul MaxMul MinMax MaxMin OrAnd PlusNorm)
    };
    (@arms $op:expr, $K:ident, $body:expr, $($kind:ident)+) => {
        match $op {
            $(OpKind::$kind => {
                type $K = $kind;
                $body
            })+
        }
    };
}

/// Computes `d = c ⊕ (a ⊗ b)` on `isa`, where all four slices are flat
/// row-major `n × n` tiles in the one reduction order of the module
/// docs. Operands must already be quantised.
///
/// Validates shapes, resolves `op` to a monomorphized kernel once, and
/// enters the ISA's leaf — re-verifying hardware support first, so an
/// unsupported `isa` value degrades to the scalar kernel rather than
/// executing an illegal instruction. The ISA-visible shape
/// (`n == CHAIN_TILE`) runs as a [`mmo_chain`] of one tile; every other
/// `n` takes the scalar leaf on every tier.
///
/// # Example
///
/// ```
/// use simd2_semiring::simd::{mmo_tile, selected_isa, KernelIsa};
/// use simd2_semiring::OpKind;
///
/// let (a, b, c) = ([1.0f32, 2.0, 3.0, 4.0], [5.0f32, 6.0, 7.0, 8.0], [0.5f32; 4]);
/// let (mut d_simd, mut d_scalar) = ([0.0f32; 4], [0.0f32; 4]);
/// mmo_tile(selected_isa(), OpKind::MinPlus, &a, &b, &c, &mut d_simd, 2);
/// mmo_tile(KernelIsa::Scalar, OpKind::MinPlus, &a, &b, &c, &mut d_scalar, 2);
/// assert_eq!(d_simd, d_scalar); // bit-identical on every tier
/// ```
///
/// # Panics
///
/// Panics if any slice length differs from `n * n`.
pub fn mmo_tile(
    isa: KernelIsa,
    op: OpKind,
    a: &[f32],
    b: &[f32],
    c: &[f32],
    d: &mut [f32],
    n: usize,
) {
    let nn = n * n;
    assert_eq!(a.len(), nn, "operand A is not {n}×{n}");
    assert_eq!(b.len(), nn, "operand B is not {n}×{n}");
    assert_eq!(c.len(), nn, "accumulator C is not {n}×{n}");
    assert_eq!(d.len(), nn, "output D is not {n}×{n}");
    d.copy_from_slice(c);
    if n == CHAIN_TILE {
        with_kernel!(op, K => run_chain::<K>(isa, a, b, d));
    } else {
        with_kernel!(op, K => scalar::mmo_chain::<K>(a, b, d, n));
    }
}

/// Folds a whole `k` chain into one accumulator tile on `isa`: seeds
/// `acc ← acc ⊕ id`, then `acc ← acc ⊕ (Aₜ ⊗ Bₜ)` for each pair of flat
/// row-major quantised [`CHAIN_TILE`]-sided tiles of `a` and `b` in
/// order — bit-identical to one [`mmo_tile`] per pair, and to one fold
/// over all of the chain's `k`. One call owns the whole `k` loop of an
/// output tile. Same support guard as [`mmo_tile`]; an empty chain
/// leaves `acc ⊕ id`.
///
/// # Panics
///
/// Panics if `a` and `b` are not the same whole number of tiles or
/// `acc` is not exactly one.
pub fn mmo_chain(isa: KernelIsa, op: OpKind, a: &[f32], b: &[f32], acc: &mut [f32]) {
    assert_chain(a, b, acc);
    with_kernel!(op, K => run_chain::<K>(isa, a, b, acc));
}

/// The shape contract of [`mmo_chain`] and [`FmaLanes::mmo_chain`].
fn assert_chain(a: &[f32], b: &[f32], acc: &[f32]) {
    assert!(
        a.len().is_multiple_of(CHAIN_ELEMS),
        "operand chain A is not whole {CHAIN_TILE}×{CHAIN_TILE} tiles"
    );
    assert_eq!(a.len(), b.len(), "operand chains A and B differ in length");
    assert_eq!(
        acc.len(),
        CHAIN_ELEMS,
        "accumulator is not {CHAIN_TILE}×{CHAIN_TILE}"
    );
}

/// Folds one output row's walk over contiguous rows of a dense `B`:
/// `acc[j] ← acc[j] ⊕ (vals[t] ⊗ b[ks[t]·ldb + j])` for `t` ascending
/// and every `j < acc.len()`, where `ldb` is the distance between `B`
/// rows — the row kernel of the sparse engine, whose `A` representation
/// (dense row, CSR row, 2:4 slots) only supplies the `(k, value)` walk.
/// A caller sweeping a column window of a wider `B` passes `b` offset to
/// the window's first column; one reading a packed strip passes the
/// strip's width.
///
/// Every column folds its terms in walk order with `⊗` and `⊕` as two
/// roundings — never a fused multiply-add: a walk's values are not read
/// for the fp16 lattice the way [`FmaLanes`] read packed tiles — so all
/// tiers equal the scalar leaf bit for bit. The x86 leaves keep a
/// [`SWEEP_STRIP`]-column accumulator strip in registers across the
/// whole walk. Same support guard as [`mmo_tile`]. Operands must already
/// be quantised.
///
/// # Panics
///
/// Panics if `ks` and `vals` differ in length or a term's row window
/// `ks[t]·ldb .. ks[t]·ldb + acc.len()` reaches past the end of `b`.
#[inline]
pub fn sweep_row(
    isa: KernelIsa,
    op: OpKind,
    ks: &[u32],
    vals: &[f32],
    b: &[f32],
    ldb: usize,
    acc: &mut [f32],
) {
    assert_eq!(ks.len(), vals.len(), "walk indices and values differ");
    with_kernel!(op, K => run_sweep::<K>(isa, ks, vals, b, ldb, acc));
}

/// What one pass over operand elements reads off them: the facts an
/// engine needs to tell whether skipping the terms an annihilator
/// decides is exact, and how many elements are not that annihilator.
/// The default — no element seen — is the scan of an empty slice.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Scan {
    /// OR of every element's bits: bit 31 is set iff some element
    /// carries a sign bit.
    pub any: u32,
    /// Largest magnitude bits: a NaN outranks `∞` outranks any finite
    /// value.
    pub max_abs: u32,
    /// Elements that differ from the scan's `zero` by value (so a NaN
    /// is always stored, and `-0.0` is not when `zero` is `0.0`).
    pub stored: usize,
}

impl Scan {
    /// The scan of two runs of elements together.
    pub fn merge(self, other: Scan) -> Scan {
        Scan {
            any: self.any | other.any,
            max_abs: self.max_abs.max(other.max_abs),
            stored: self.stored + other.stored,
        }
    }

    /// Whether no element carries a sign bit.
    pub fn sign_clear(self) -> bool {
        self.any >> 31 == 0
    }

    /// Whether every element is finite.
    pub fn finite(self) -> bool {
        self.largest().is_finite()
    }

    /// The element of largest magnitude, sign cleared.
    pub fn largest(self) -> f32 {
        f32::from_bits(self.max_abs)
    }
}

/// Elements one leaf call scans at most, so its per-lane `u32` counts
/// (and their sum) cannot wrap.
const SCAN_BLOCK: usize = 1 << 24;

/// Scans `xs` against the annihilator `zero` ([`Scan`]) on `isa`'s
/// vector leaf, the scalar leaf being its oracle: every tier returns the
/// same facts. Same support guard as [`mmo_tile`].
pub fn scan(isa: KernelIsa, zero: f32, xs: &[f32]) -> Scan {
    xs.chunks(SCAN_BLOCK)
        .map(|block| run_scan(isa, zero, block))
        .fold(Scan::default(), Scan::merge)
}

/// The detection-guarded entry to the scan leaves, which bounds-check
/// every access themselves.
fn run_scan(isa: KernelIsa, zero: f32, xs: &[f32]) -> Scan {
    match isa {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the guard proved avx512f is available on this CPU.
        KernelIsa::Avx512 if cpu_features().avx512f => unsafe { x86::scan_avx512(zero, xs) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the guard proved avx2 is available on this CPU.
        KernelIsa::Avx2 if cpu_features().avx2 => unsafe { x86::scan_avx2(zero, xs) },
        _ => scalar::scan(zero, xs),
    }
}

/// Compacts `xs` against the annihilator `zero` on `isa`'s vector leaf,
/// the scalar leaf being its oracle: writes every element that differs
/// from `zero` by value — [`Scan::stored`]'s rule, so a NaN of any
/// payload is kept and `±0.0` against `0.0` dropped — in order to the
/// front of `vals`, its index in `xs` to the front of `cols`, and
/// returns how many. Every tier writes the same prefixes; the slots past
/// the count are scratch (the scalar leaf writes the next one). Same
/// support guard as [`mmo_tile`].
///
/// The room the caller gives is also what the vector leaves read the
/// density off: sized to the count a [`scan`] took, room for under one
/// element in 64 of `xs` means most vectors keep nothing, and those are
/// skipped on a branch that rarely mispredicts there.
///
/// # Panics
///
/// Panics if `xs` has more elements than a `u32` indexes, or more of
/// them are stored than `cols` or `vals` has room for.
pub fn compact(isa: KernelIsa, zero: f32, xs: &[f32], cols: &mut [u32], vals: &mut [f32]) -> usize {
    assert!(u32::try_from(xs.len()).is_ok(), "indices past u32");
    let sparse = cols.len().min(vals.len()) * SPARSE_SPAN <= xs.len();
    match isa {
        #[cfg(target_arch = "x86_64")]
        // SAFETY (both arms): the guard proved avx512f is available on
        // this CPU.
        KernelIsa::Avx512 if cpu_features().avx512f => unsafe {
            if sparse {
                x86::compact_avx512::<true>(zero, xs, cols, vals)
            } else {
                x86::compact_avx512::<false>(zero, xs, cols, vals)
            }
        },
        #[cfg(target_arch = "x86_64")]
        // SAFETY (both arms): the guard proved avx2 is available on this
        // CPU.
        KernelIsa::Avx2 if cpu_features().avx2 => unsafe {
            if sparse {
                x86::compact_avx2::<true>(zero, xs, cols, vals)
            } else {
                x86::compact_avx2::<false>(zero, xs, cols, vals)
            }
        },
        _ => scalar::compact(zero, xs, 0, cols, vals),
    }
}

/// Elements of `xs` per element of room from which [`compact`]'s vector
/// leaves skip the vectors that keep nothing (1.6 % stored: at 1 % the
/// skip halves a leaf's time, at 2 % it breaks even, at 5 % it doubles
/// it — measured on 512-element rows, AVX-512).
const SPARSE_SPAN: usize = 64;

/// Elements one word of a bit row holds: element `j` of a row is bit
/// `j % 64` of word `j / 64`.
pub const BIT_WORD: usize = 64;

/// Words of the bit row of `len` elements.
pub fn bit_words(len: usize) -> usize {
    len.div_ceil(BIT_WORD)
}

/// Writes the or-and truthiness of `xs` — `x != 0.0`, NaN truthy (the
/// chain leaves' `_CMP_NEQ_UQ`) — into the bit row `bits`, clearing
/// every bit past `xs`, on `isa`'s vector leaf, the scalar leaf being
/// its oracle; returns whether any bit is set. Same support guard as
/// [`mmo_tile`].
///
/// # Panics
///
/// Panics if `bits` has fewer than [`bit_words`]`(xs.len())` words.
pub fn truthy_bits(isa: KernelIsa, xs: &[f32], bits: &mut [u64]) -> bool {
    assert!(bits.len() >= bit_words(xs.len()), "bit row too short");
    match isa {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the guard proved avx512f is available on this CPU.
        KernelIsa::Avx512 if cpu_features().avx512f => unsafe { x86::truthy_bits_avx512(xs, bits) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the guard proved avx2 is available on this CPU.
        KernelIsa::Avx2 if cpu_features().avx2 => unsafe { x86::truthy_bits_avx2(xs, bits) },
        _ => scalar::truthy_bits(xs, bits),
    }
}

/// Rows of a bit table's group: one nibble of a pick selects among
/// their ORs.
pub const TABLE_GROUP: usize = 4;

/// Entries of a bit table's group: the OR of each subset of its
/// [`TABLE_GROUP`] rows, entry `s` the rows `i` of the bits `i` set in
/// `s` (entry `0` is empty).
pub const TABLE_ENTRIES: usize = 1 << TABLE_GROUP;

/// Words of the bit table [`or_rows`] reads for a pick of `pick_words`
/// words and bit rows of `words` words: [`TABLE_ENTRIES`] rows for each
/// nibble of the pick.
pub fn table_words(pick_words: usize, words: usize) -> usize {
    pick_words * BIT_WORD / TABLE_GROUP * TABLE_ENTRIES * words
}

/// ORs into the bit row `acc` row `16g + s` of the bit table `table`
/// (rows of `acc.len()` words, back to back) for every nibble `s ≠ 0` of
/// `pick`, `g` its place (bits `4g..4g + 4`). Where entry `s` of group
/// `g` is the OR of the rows `4g + i` of a bit matrix for the bits `i`
/// set in `s`, that is the OR of every row of the matrix a set bit of
/// `pick` names. On `isa`'s vector leaf (the accumulator stays in
/// registers across the whole walk of `pick`), the scalar leaf being its
/// oracle; OR is exact and commutative, so every tier returns the same
/// bits. Same support guard as [`mmo_tile`].
///
/// # Panics
///
/// Panics if `table` has fewer than [`table_words`]`(pick.len(),
/// acc.len())` words.
pub fn or_rows(isa: KernelIsa, pick: &[u64], table: &[u64], acc: &mut [u64]) {
    assert!(
        table.len() >= table_words(pick.len(), acc.len()),
        "bit table too short for the pick"
    );
    match isa {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the guard proved avx512f is available on this CPU, and
        // the assertion above the table's length.
        KernelIsa::Avx512 if cpu_features().avx512f => unsafe {
            x86::or_rows_avx512(pick, table, acc)
        },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the guard proved avx2 is available on this CPU, and
        // the assertion above the table's length.
        KernelIsa::Avx2 if cpu_features().avx2 => unsafe { x86::or_rows_avx2(pick, table, acc) },
        _ => scalar::or_rows(pick, table, acc.len(), 0, acc),
    }
}

/// Writes the bit row `bits` out as or-and's canonical values — `1.0`
/// where a bit is set, `+0.0` where not — one per element of `out`, on
/// `isa`'s vector leaf, the scalar leaf being its oracle. Same support
/// guard as [`mmo_tile`].
///
/// # Panics
///
/// Panics if `bits` has fewer than [`bit_words`]`(out.len())` words.
pub fn bits_to_f32(isa: KernelIsa, bits: &[u64], out: &mut [f32]) {
    assert!(bits.len() >= bit_words(out.len()), "bit row too short");
    match isa {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the guard proved avx512f is available on this CPU.
        KernelIsa::Avx512 if cpu_features().avx512f => unsafe {
            x86::bits_to_f32_avx512(bits, out)
        },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the guard proved avx2 is available on this CPU.
        KernelIsa::Avx2 if cpu_features().avx2 => unsafe { x86::bits_to_f32_avx2(bits, out) },
        _ => scalar::bits_to_f32(bits, out),
    }
}

/// `u32` words of one tile's [`HalfLanes`] image as a chain's `A`
/// operand: per row pair `i`, `i + 8` and column `k`, the two rows' fp16
/// values in one word (row `i` in the low half), `k` fastest.
pub const HALF_A_WORDS: usize = CHAIN_ELEMS / 2;

/// `u32` words of one tile's [`HalfLanes`] image as a chain's `B`
/// operand: every fp16 value twice in one word, row-major.
pub const HALF_B_WORDS: usize = CHAIN_ELEMS;

/// What a tile's fp16 round trip says of the tile: whether the half
/// lanes may fold it, and whether the FMA lanes may. Ordered by
/// precedence, so the fit of a tile pair is the larger of its two
/// tiles': [`HalfLanes`] fold a pair whose fit is at most
/// [`Infinite`](HalfFit::Infinite), [`FmaLanes`] one whose fit is
/// [`Exact`](HalfFit::Exact).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum HalfFit {
    /// Every element is finite and survives the fp16 round trip exactly:
    /// the image holds the tile, and the product of any two such
    /// elements is exact in `f32`.
    #[default]
    Exact,
    /// Every element survives the fp16 round trip exactly, but some
    /// element is `±∞`: the image still holds the tile.
    Infinite,
    /// No element is NaN, but some element is off the fp16 lattice.
    OffLattice,
    /// Some element is NaN.
    Nan,
}

impl HalfFit {
    /// The fit of a tile some of whose elements are NaN (`nan`), off the
    /// fp16 lattice (`inexact`, NaN included or not) and `±∞`
    /// (`infinite`).
    fn of(nan: bool, inexact: bool, infinite: bool) -> Self {
        if nan {
            HalfFit::Nan
        } else if inexact {
            HalfFit::OffLattice
        } else if infinite {
            HalfFit::Infinite
        } else {
            HalfFit::Exact
        }
    }
}

/// The fp16 lanes a min-max or max-min tile chain folds on: 32 lanes per
/// vector through the same bare `min`/`max` instructions the `f32` chain
/// leaf folds NaN-free pairs with. Made only by [`HalfLanes::new`], after
/// the feature probe, so holding one proves the host runs its leaves.
///
/// Every term of these two ops is an operand element. On tiles whose
/// images are [`HalfFit::Exact`] the fold from the identity in fp16 is
/// therefore the fold in `f32`, `vminph`/`vmaxph` keeping the second
/// operand on a tie exactly as `vminps`/`vmaxps` do, and folding its
/// result into the `f32`-seeded accumulator once is exact, because
/// "the first element to reach the extreme" is associative under
/// concatenation. `C` never enters fp16. See DESIGN.md §8 "Selection
/// chains on fp16 lanes".
///
/// ```
/// use simd2_semiring::simd::{self, HalfFit, HalfLanes, KernelIsa, CHAIN_ELEMS};
/// use simd2_semiring::OpKind;
///
/// let (a, b) = (vec![2.5f32; CHAIN_ELEMS], vec![-0.0f32; CHAIN_ELEMS]);
/// let mut want = vec![f32::NAN; CHAIN_ELEMS];
/// simd::mmo_chain(KernelIsa::Scalar, OpKind::MinMax, &a, &b, &mut want);
/// if let Some(half) = HalfLanes::new(simd::selected_isa(), OpKind::MinMax) {
///     let (mut a_img, mut b_img) = (vec![0; simd::HALF_A_WORDS], vec![0; simd::HALF_B_WORDS]);
///     let mut fits = [HalfFit::Nan; 2];
///     half.image_a(&a, &mut a_img, &mut fits[..1]);
///     half.image_b(&b, &mut b_img, &mut fits[1..]);
///     assert_eq!(fits, [HalfFit::Exact; 2]);
///     let mut got = vec![f32::NAN; CHAIN_ELEMS];
///     half.mmo_chain(&a_img, &b_img, &mut got);
///     assert_eq!(got, want);
/// }
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct HalfLanes {
    op: OpKind,
}

impl HalfLanes {
    /// The half lanes of `op` on `isa`: `Some` for min-max and max-min
    /// on the AVX-512 tier of a host with [`CpuFeatures::avx512fp16`],
    /// `None` on every other tier, pin or op.
    pub fn new(isa: KernelIsa, op: OpKind) -> Option<Self> {
        let f = cpu_features();
        let lanes = isa == KernelIsa::Avx512 && f.avx512f && f.avx512fp16;
        (op.selects() && lanes).then_some(Self { op })
    }

    /// Writes the fp16 image of the whole tiles of `tiles` as chain `A`
    /// operands ([`HALF_A_WORDS`] per tile) and each tile's [`HalfFit`].
    ///
    /// # Panics
    ///
    /// Panics unless `tiles` is whole tiles and `image` and `fits` hold
    /// exactly one image and one fit per tile.
    pub fn image_a(self, tiles: &[f32], image: &mut [u32], fits: &mut [HalfFit]) {
        assert_image(tiles, image, fits, HALF_A_WORDS);
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `new` proved avx512f is available on this CPU.
        unsafe {
            x86::half_image_a(tiles, image, fits)
        }
    }

    /// [`image_a`](Self::image_a) for chain `B` operands
    /// ([`HALF_B_WORDS`] per tile).
    ///
    /// # Panics
    ///
    /// As [`image_a`](Self::image_a).
    pub fn image_b(self, tiles: &[f32], image: &mut [u32], fits: &mut [HalfFit]) {
        assert_image(tiles, image, fits, HALF_B_WORDS);
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `new` proved avx512f is available on this CPU.
        unsafe {
            x86::half_image_b(tiles, image, fits)
        }
    }

    /// [`mmo_chain`] of the tile pairs whose images `a` and `b` hold —
    /// whose fits must all be [`HalfFit::Exact`] or
    /// [`HalfFit::Infinite`], or the result is unspecified
    /// (though memory-safe): seeds `acc ⊕ id` in `f32`, folds the chain
    /// on fp16 lanes from the identity and folds that into `acc` once.
    ///
    /// # Panics
    ///
    /// Panics if `a` and `b` are not images of the same whole number of
    /// tiles or `acc` is not exactly one tile.
    pub fn mmo_chain(self, a: &[u32], b: &[u32], acc: &mut [f32]) {
        assert!(
            a.len().is_multiple_of(HALF_A_WORDS),
            "A image is not whole tiles"
        );
        assert_eq!(
            a.len() / HALF_A_WORDS * HALF_B_WORDS,
            b.len(),
            "A and B images differ in tiles"
        );
        assert_eq!(
            acc.len(),
            CHAIN_ELEMS,
            "accumulator is not {CHAIN_TILE}×{CHAIN_TILE}"
        );
        #[cfg(target_arch = "x86_64")]
        // SAFETY (both arms): `new` proved avx512f, avx512bw, avx512vl and
        // avx512fp16 are available on this CPU.
        unsafe {
            if self.op == OpKind::MinMax {
                x86::half_chain_avx512::<MinMax>(a, b, acc)
            } else {
                x86::half_chain_avx512::<MaxMin>(a, b, acc)
            }
        }
    }
}

/// The shape contract of [`HalfLanes::image_a`], [`HalfLanes::image_b`]
/// and (with no image) [`FmaLanes::fits`].
fn assert_image(tiles: &[f32], image: &[u32], fits: &[HalfFit], words: usize) {
    assert!(
        tiles.len().is_multiple_of(CHAIN_ELEMS),
        "tiles are not whole {CHAIN_TILE}×{CHAIN_TILE} tiles"
    );
    let count = tiles.len() / CHAIN_ELEMS;
    assert_eq!(image.len(), count * words, "image is not one per tile");
    assert_eq!(fits.len(), count, "fits are not one per tile");
}

/// The FMA lanes a plus-mul tile chain folds on: each term
/// `acc ← acc + a·b` in one fused multiply-add instead of a multiply and
/// an add. Made only by [`FmaLanes::new`], after the feature probe, so
/// holding one proves the host runs its leaves.
///
/// The two fp16 values of a pair whose tiles are [`HalfFit::Exact`] have
/// at most 11 significant bits each and magnitudes in `2⁻²⁴ ..= 65504`,
/// so their product has at most 22 significant bits and a magnitude in
/// `2⁻⁴⁸ ..= 65504²`, well inside `f32`'s normal range: `a·b` is exact in
/// `f32`. The fused `round(a·b + acc)` is then `round(fl(a·b) + acc)`,
/// the scalar fold's two roundings, for every accumulator — `±0`, `±∞`
/// and a NaN seeded from `C` (the only NaN operand either way) included.
/// A NaN or `±∞` in a tile, or a value off the lattice, keeps the pair on
/// the separate multiply and add. See DESIGN.md §8 "Plus-mul chains on
/// FMA lanes".
///
/// ```
/// use simd2_semiring::simd::{self, FmaLanes, HalfFit, KernelIsa, CHAIN_ELEMS};
/// use simd2_semiring::OpKind;
///
/// let (a, b) = (vec![1.5f32; CHAIN_ELEMS], vec![-65504.0f32; CHAIN_ELEMS]);
/// let mut want = vec![0.1f32; CHAIN_ELEMS];
/// let mut got = want.clone();
/// simd::mmo_chain(KernelIsa::Scalar, OpKind::PlusMul, &a, &b, &mut want);
/// if let Some(fma) = FmaLanes::new(simd::selected_isa(), OpKind::PlusMul) {
///     let mut fits = [HalfFit::Nan; 2];
///     fma.fits(&a, &mut fits[..1]);
///     fma.fits(&b, &mut fits[1..]);
///     assert_eq!(fits, [HalfFit::Exact; 2]);
///     fma.mmo_chain(&a, &b, &mut got);
///     assert_eq!(got, want);
/// }
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct FmaLanes {
    isa: KernelIsa,
}

impl FmaLanes {
    /// The FMA lanes of `op` on `isa`: `Some` for plus-mul on the
    /// AVX-512 and AVX2 tiers the host supports (the AVX2 tier requires
    /// FMA), `None` on the scalar tier and for every other op.
    pub fn new(isa: KernelIsa, op: OpKind) -> Option<Self> {
        let lanes = isa != KernelIsa::Scalar && isa.is_supported();
        (op == OpKind::PlusMul && lanes).then_some(Self { isa })
    }

    /// Writes the [`HalfFit`] of each whole tile of `tiles` to `fits`:
    /// the fp16 round trip of every element, without keeping the image.
    ///
    /// # Panics
    ///
    /// Panics unless `tiles` is whole tiles and `fits` holds exactly one
    /// fit per tile.
    pub fn fits(self, tiles: &[f32], fits: &mut [HalfFit]) {
        assert_image(tiles, &[], fits, 0);
        match self.isa {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `new` proved avx512f is available on this CPU.
            KernelIsa::Avx512 => unsafe { x86::fits_avx512(tiles, fits) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `new` proved avx2 and f16c (the AVX2 tier's
            // features) are available on this CPU.
            KernelIsa::Avx2 => unsafe { x86::fits_avx2(tiles, fits) },
            _ => fits.fill(HalfFit::Nan),
        }
    }

    /// [`mmo_chain`] of plus-mul over tile pairs whose fits must all be
    /// [`HalfFit::Exact`], or the result is unspecified (though
    /// memory-safe): seeds `acc ⊕ id`, then folds every term with one
    /// fused multiply-add.
    ///
    /// # Panics
    ///
    /// As [`mmo_chain`].
    pub fn mmo_chain(self, a: &[f32], b: &[f32], acc: &mut [f32]) {
        assert_chain(a, b, acc);
        match self.isa {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `new` proved avx512f is available on this CPU, and
            // the shapes were asserted.
            KernelIsa::Avx512 => unsafe { x86::mmo_chain_avx512::<PlusMul, true>(a, b, acc) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `new` proved avx2 and fma are available on this
            // CPU, and the shapes were asserted.
            KernelIsa::Avx2 => unsafe { x86::mmo_chain_avx2::<PlusMul, true>(a, b, acc) },
            _ => scalar::mmo_chain::<PlusMul>(a, b, acc, CHAIN_TILE),
        }
    }
}

/// Quantises every element of `xs` through fp16 in place, vectorized
/// when `isa` is a vector tier the host supports.
///
/// Bit-identical to [`crate::precision::quantize_f16_slice`] on every
/// path — `scripts/verify.sh --full` compares the vector lowering (the
/// hardware conversion pair, NaN payloads patched to the software rule)
/// with the scalar quantiser over all 2³² `f32` bit patterns, and the
/// identity proptests pin it in every test run. A scalar `isa` always
/// takes the scalar loop, so the forced-scalar leg exercises the oracle
/// end to end.
pub fn quantize_f16_slice(isa: KernelIsa, xs: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if isa == KernelIsa::Avx512 && cpu_features().avx512f {
        // SAFETY: the guard proved avx512f, the feature the leaf
        // enables, is available on this CPU.
        unsafe { x86::quantize_f16_avx512(xs) };
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if isa.lanes() > 1 && cpu_features().avx2 && cpu_features().f16c {
        // SAFETY: the guard proved avx2 and f16c, the features the leaf
        // enables, are available on this CPU.
        unsafe { x86::quantize_f16_avx2(xs) };
        return;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = isa;
    crate::precision::quantize_f16_slice(xs);
}

/// The relation the bit-identity suites assert between a kernel's
/// output and the scalar oracle's: the same bit pattern — except that
/// where both are NaN, sign and payload must agree only in builds with
/// debug assertions.
///
/// IEEE 754 does not say which operand's payload `NaN + NaN` keeps, and
/// when optimising LLVM may commute the scalar oracle's `+`, so in a
/// release build which NaN survives a plus-mul or plus-norm fold is the
/// compiler's choice, not a property of the kernels. Unoptimised builds
/// evaluate the oracle as written, and there payloads are compared too.
///
/// ```
/// use simd2_semiring::simd::same_bits;
///
/// assert!(same_bits(1.5, 1.5));
/// assert!(!same_bits(0.0, -0.0));
/// assert!(!same_bits(f32::NAN, 1.5));
/// assert!(same_bits(f32::NAN, f32::NAN));
/// ```
pub fn same_bits(got: f32, want: f32) -> bool {
    got.to_bits() == want.to_bits() || (!cfg!(debug_assertions) && got.is_nan() && want.is_nan())
}

/// Kernels lowered on every ISA tier this build knows about. Blanket-
/// implemented for all nine semirings; exists so [`run_chain`] can name
/// one bound that is right for whichever architecture is being compiled.
#[cfg(target_arch = "x86_64")]
trait ArchKernel: SemiringKernel + x86::Kernel256 + x86::Kernel512 {}
#[cfg(target_arch = "x86_64")]
impl<K: SemiringKernel + x86::Kernel256 + x86::Kernel512> ArchKernel for K {}

#[cfg(not(target_arch = "x86_64"))]
trait ArchKernel: SemiringKernel {}
#[cfg(not(target_arch = "x86_64"))]
impl<K: SemiringKernel> ArchKernel for K {}

/// The detection-guarded entry to the `#[target_feature]` chain leaves:
/// an arm is taken only when the runtime probe confirms the host
/// executes that tier, which is exactly the precondition the leaf's
/// safety contract requires. Shape preconditions were asserted by
/// [`mmo_chain`] / [`mmo_tile`].
fn run_chain<K: ArchKernel>(isa: KernelIsa, a: &[f32], b: &[f32], acc: &mut [f32]) {
    match isa {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the guard proved avx512f is available on this CPU, and
        // the callers asserted the chain and accumulator shapes.
        KernelIsa::Avx512 if cpu_features().avx512f => unsafe {
            x86::mmo_chain_avx512::<K, false>(a, b, acc)
        },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the guard proved avx2 and fma are available on this
        // CPU, and the callers asserted the chain and accumulator shapes.
        KernelIsa::Avx2 if cpu_features().avx2 && cpu_features().fma => unsafe {
            x86::mmo_chain_avx2::<K, false>(a, b, acc)
        },
        _ => scalar::mmo_chain::<K>(a, b, acc, CHAIN_TILE),
    }
}

/// The detection-guarded entry to the row-sweep leaves, which bounds-
/// check every access themselves.
fn run_sweep<K: ArchKernel>(
    isa: KernelIsa,
    ks: &[u32],
    vals: &[f32],
    b: &[f32],
    ldb: usize,
    acc: &mut [f32],
) {
    match isa {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the guard proved avx512f is available on this CPU.
        KernelIsa::Avx512 if cpu_features().avx512f => unsafe {
            x86::sweep_row_avx512::<K>(ks, vals, b, ldb, acc)
        },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the guard proved avx2 is available on this CPU.
        KernelIsa::Avx2 if cpu_features().avx2 => unsafe {
            x86::sweep_row_avx2::<K>(ks, vals, b, ldb, acc)
        },
        _ => scalar::sweep_columns::<K>(scalar::walk(ks, vals), b, ldb, 0, acc),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ALL_OPS;

    fn assert_same_bits(got: &[f32], want: &[f32], ctx: &str) {
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(same_bits(*g, *w), "{ctx}: element {i}: {g:e} vs {w:e}");
        }
    }

    #[test]
    fn nan_payloads_are_compared_exactly_where_the_oracle_is_unoptimised() {
        assert_eq!(same_bits(f32::NAN, -f32::NAN), !cfg!(debug_assertions));
        assert!(!same_bits(f32::NAN, f32::INFINITY));
        assert!(!same_bits(1.0, f32::NAN));
    }

    #[test]
    fn scalar_is_always_supported_and_selected_isa_is_supported() {
        assert!(KernelIsa::Scalar.is_supported());
        assert!(selected_isa().is_supported());
    }

    #[test]
    fn with_isa_downgrades_unsupported_tiers_to_scalar() {
        let f = cpu_features();
        assert_eq!(KernelIsa::Avx2.is_supported(), f.avx2 && f.fma && f.f16c);
        let xs: [f32; 11] =
            std::array::from_fn(|i| [0.1, -65520.0, 1.0e-7, f32::NAN][i % 4] * (i + 1) as f32);
        let want_q = xs.map(|x| crate::precision::quantize_f16(x).to_bits());
        let a: Vec<f32> = (0..CHAIN_ELEMS).map(|i| (i % 9) as f32 - 4.0).collect();
        let b: Vec<f32> = (0..CHAIN_ELEMS).map(|i| (i % 5) as f32 * 0.5).collect();
        let mut want = vec![1.0f32; CHAIN_ELEMS];
        mmo_chain(KernelIsa::Scalar, OpKind::MinPlus, &a, &b, &mut want);
        for isa in KernelIsa::ALL {
            // The tile entries and the quantiser take the raw tier and
            // guard their own leaves: an unsupported tier runs scalar.
            let mut acc = vec![1.0f32; CHAIN_ELEMS];
            mmo_chain(isa, OpKind::MinPlus, &a, &b, &mut acc);
            assert_same_bits(&acc, &want, &format!("chain on {isa}"));
            let mut got = xs;
            quantize_f16_slice(isa, &mut got);
            assert_eq!(got.map(f32::to_bits), want_q, "{isa}");
        }
    }

    #[test]
    fn names_and_lanes_are_stable() {
        assert_eq!(KernelIsa::Avx512.name(), "avx512");
        assert_eq!(KernelIsa::Avx2.name(), "avx2");
        assert_eq!(KernelIsa::Scalar.name(), "scalar");
        assert_eq!(KernelIsa::Avx512.lanes(), 16);
        assert_eq!(KernelIsa::Avx2.lanes(), 8);
        assert_eq!(KernelIsa::Scalar.lanes(), 1);
        assert_eq!(KernelIsa::Avx2.to_string(), "avx2");
    }

    #[test]
    fn every_supported_tier_matches_scalar_on_a_smoke_tile() {
        // The exhaustive identity coverage lives in the proptest suite;
        // this is the in-crate smoke check over all nine ops.
        let n = 16;
        let a: Vec<f32> = (0..n * n).map(|i| ((i % 13) as f32) * 0.25 - 1.0).collect();
        let b: Vec<f32> = (0..n * n).map(|i| ((i % 7) as f32) * 0.5 - 1.5).collect();
        for op in ALL_OPS {
            let c: Vec<f32> = (0..n * n)
                .map(|i| {
                    if i % 5 == 0 {
                        op.reduce_identity_f32()
                    } else {
                        (i % 3) as f32 - 1.0
                    }
                })
                .collect();
            let mut want = vec![0.0f32; n * n];
            mmo_tile(KernelIsa::Scalar, op, &a, &b, &c, &mut want, n);
            for isa in KernelIsa::ALL {
                if !isa.is_supported() {
                    continue;
                }
                let mut got = vec![0.0f32; n * n];
                mmo_tile(isa, op, &a, &b, &c, &mut got, n);
                assert_same_bits(&got, &want, &format!("{op} on {isa}"));
            }
        }
    }

    #[test]
    #[should_panic(expected = "differ in length")]
    fn ragged_chains_are_rejected() {
        let a = vec![0.0f32; 2 * CHAIN_ELEMS];
        let b = vec![0.0f32; CHAIN_ELEMS];
        let mut acc = vec![0.0f32; CHAIN_ELEMS];
        mmo_chain(KernelIsa::Scalar, OpKind::PlusMul, &a, &b, &mut acc);
    }

    #[test]
    fn vector_quantize_matches_scalar_on_boundary_neighbourhoods() {
        // Dense scans around every case boundary of the fp16 round trip:
        // zero/subnormal (2^-25), subnormal/normal (2^-14), rounding
        // carry into infinity, and the NaN payload rewrite. All 2^32
        // patterns are compared by `scripts/verify.sh --full` (the
        // ignored test in `tests/proptest_simd.rs`); this keeps the
        // contract pinned in every test run.
        let mut patterns: Vec<u32> = Vec::new();
        for base in [
            0x0000_0000u32, // ±0 and smallest subnormals
            0x3300_0000,    // zero/subnormal-target boundary
            0x3880_0000,    // subnormal/normal-target boundary
            0x3C00_0000,    // 1.0 neighbourhood
            0x4780_0000,    // overflow-to-infinity boundary
            0x7F80_0000,    // infinity and NaN space
            0x7FC0_0000,    // quiet NaNs
        ] {
            for off in 0..512u32 {
                patterns.push(base.wrapping_add(off).wrapping_sub(256));
            }
        }
        // Every f16-exact value's neighbourhood, coarsely.
        for h in (0..=0xFFFFu32).step_by(97) {
            patterns.push(h << 13);
        }
        for sign in [0u32, 0x8000_0000] {
            let mut xs: Vec<f32> = patterns.iter().map(|&p| f32::from_bits(p | sign)).collect();
            let want: Vec<u32> = xs
                .iter()
                .map(|&x| crate::precision::quantize_f16(x).to_bits())
                .collect();
            for isa in KernelIsa::ALL {
                if !isa.is_supported() {
                    continue;
                }
                let mut got = xs.clone();
                quantize_f16_slice(isa, &mut got);
                let got_bits: Vec<u32> = got.iter().map(|x| x.to_bits()).collect();
                assert_eq!(got_bits, want, "sign={sign:#x} isa={isa}");
            }
            // Odd length exercises the scalar tail of the vector path.
            xs.truncate(xs.len() - 3);
            let mut got = xs.clone();
            quantize_f16_slice(selected_isa(), &mut got);
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.to_bits(), *w);
            }
        }
    }

    #[test]
    #[should_panic(expected = "operand A")]
    fn shape_mismatches_are_rejected() {
        let buf = vec![0.0f32; 9];
        let mut d = vec![0.0f32; 16];
        mmo_tile(
            KernelIsa::Scalar,
            OpKind::PlusMul,
            &buf,
            &d.clone(),
            &d.clone(),
            &mut d,
            4,
        );
    }
}
