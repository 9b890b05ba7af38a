//! Outside timers for the layers under `TiledBackend::mmo`, all on the
//! same 256³ operands: the bare vector kernel (`semiring`), the unit
//! that adds fp16 quantisation and tile returns (`mxu`), and a panel
//! loop built from the public `tiling` loaders (`matrix`) that is the
//! backend's own loop minus validation, counting and tracing — plus the
//! host's measured mul+add peak, the denominator for "fast".

use std::hint::black_box;

use simd2_matrix::tiling::{self, TileGrid};
use simd2_matrix::{Matrix, Tile, ISA_TILE};
use simd2_mxu::Simd2Unit;
use simd2_semiring::{precision, simd, KernelIsa, OpKind};

/// Side of the probe problem: 256³, i.e. a 16×16 grid of 16×16 tiles.
pub const PROBE_N: usize = 256;
const GRID: usize = PROBE_N / ISA_TILE;
const TILE_ELEMS: usize = ISA_TILE * ISA_TILE;

/// MACs of one probe pass.
pub const PROBE_MACS: f64 = (PROBE_N * PROBE_N * PROBE_N) as f64;

/// Independent dependency chains in the peak loop: each chain is one
/// multiply and one add per step, both of latency ~4 on current cores,
/// so six chains keep two vector ports busy without spilling the
/// sixteen AVX2 registers.
const CHAINS: usize = 6;

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn mul_add_avx512(iters: u64, a: f32, seed: f32) -> f32 {
    use std::arch::x86_64::{
        _mm512_add_ps, _mm512_mul_ps, _mm512_reduce_add_ps, _mm512_set1_ps, _mm512_setzero_ps,
    };
    let va = _mm512_set1_ps(a);
    let mut m = [_mm512_set1_ps(seed); CHAINS];
    let mut s = [_mm512_setzero_ps(); CHAINS];
    for _ in 0..iters {
        for c in 0..CHAINS {
            m[c] = _mm512_mul_ps(m[c], va);
            s[c] = _mm512_add_ps(s[c], m[c]);
        }
    }
    let mut total = _mm512_setzero_ps();
    for sc in s {
        total = _mm512_add_ps(total, sc);
    }
    _mm512_reduce_add_ps(total)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn mul_add_avx2(iters: u64, a: f32, seed: f32) -> f32 {
    use std::arch::x86_64::{
        _mm256_add_ps, _mm256_mul_ps, _mm256_set1_ps, _mm256_setzero_ps, _mm256_storeu_ps,
    };
    let va = _mm256_set1_ps(a);
    let mut m = [_mm256_set1_ps(seed); CHAINS];
    let mut s = [_mm256_setzero_ps(); CHAINS];
    for _ in 0..iters {
        for c in 0..CHAINS {
            m[c] = _mm256_mul_ps(m[c], va);
            s[c] = _mm256_add_ps(s[c], m[c]);
        }
    }
    let mut total = _mm256_setzero_ps();
    for sc in s {
        total = _mm256_add_ps(total, sc);
    }
    let mut out = [0.0f32; 8];
    // SAFETY: `out` is eight `f32`s, exactly the 32 bytes the unaligned
    // store writes.
    unsafe { _mm256_storeu_ps(out.as_mut_ptr(), total) };
    out.iter().sum()
}

/// The same loop over `L`-wide arrays, for tiers without an intrinsic
/// version here (NEON, where `L = 4` matches the baseline vector
/// width, and the scalar tier).
fn mul_add_portable<const L: usize>(iters: u64, a: f32, seed: f32) -> f32 {
    let mut m = [[seed; L]; CHAINS];
    let mut s = [[0.0f32; L]; CHAINS];
    for _ in 0..iters {
        for c in 0..CHAINS {
            for l in 0..L {
                m[c][l] *= a;
                s[c][l] += m[c][l];
            }
        }
    }
    s.iter().flatten().sum()
}

/// One sample of the host's register-resident multiply-then-add rate at
/// tier `isa` (separate `mul` and `add`, like the kernels: a fused FMA
/// would round once and break their bit-identity contract). Returns
/// `(MACs performed, a value depending on all of them)`.
pub fn peak_pass(isa: KernelIsa, iters: u64) -> (f64, f32) {
    // A multiplier of exactly 1 keeps every chain finite forever; the
    // compiler cannot see it, so nothing folds.
    let a = black_box(1.0f32);
    let seed = black_box(1.0f32);
    let macs = |lanes: usize| (iters as usize * CHAINS * lanes) as f64;
    match isa {
        #[cfg(target_arch = "x86_64")]
        KernelIsa::Avx512 if std::arch::is_x86_feature_detected!("avx512f") => {
            // SAFETY: the guard proved avx512f is available on this CPU.
            (macs(16), unsafe { mul_add_avx512(iters, a, seed) })
        }
        #[cfg(target_arch = "x86_64")]
        KernelIsa::Avx2 if std::arch::is_x86_feature_detected!("avx2") => {
            // SAFETY: the guard proved avx2 is available on this CPU.
            (macs(8), unsafe { mul_add_avx2(iters, a, seed) })
        }
        KernelIsa::Scalar => (macs(1), mul_add_portable::<1>(iters, a, seed)),
        _ => (macs(4), mul_add_portable::<4>(iters, a, seed)),
    }
}

/// Operands of the probes for one op, in the three forms the layers
/// take them.
pub struct ProbeSet {
    /// The op.
    pub op: OpKind,
    /// `A`, `B`, `C` as matrices (what the panel loop and the backend
    /// read).
    pub matrices: (Matrix, Matrix, Matrix),
    /// The same values as padded tiles, `a[ti*GRID+tk]`, `b[tk*GRID+tj]`,
    /// `c[ti*GRID+tj]` (what the unit reads).
    tiles: (
        Vec<Tile<ISA_TILE>>,
        Vec<Tile<ISA_TILE>>,
        Vec<Tile<ISA_TILE>>,
    ),
    /// `A` and `B` tiles quantised through fp16 and flattened (what the
    /// bare kernel reads; `C` is never quantised).
    flat: (Vec<[f32; TILE_ELEMS]>, Vec<[f32; TILE_ELEMS]>),
}

impl ProbeSet {
    /// Builds all three forms from seeded operands.
    pub fn new(op: OpKind, seed: u64) -> Self {
        let (a, b, c) = crate::common::operands(op, PROBE_N, PROBE_N, PROBE_N, seed);
        let grid = |f: &dyn Fn(usize, usize) -> Tile<ISA_TILE>| -> Vec<Tile<ISA_TILE>> {
            (0..GRID * GRID).map(|i| f(i / GRID, i % GRID)).collect()
        };
        let at = grid(&|ti, tk| tiling::load_a_tile::<ISA_TILE>(op, &a, ti, tk));
        let bt = grid(&|tk, tj| tiling::load_b_tile::<ISA_TILE>(op, &b, tk, tj));
        let ct = grid(&|ti, tj| tiling::load_c_tile::<ISA_TILE>(op, &c, ti, tj));
        let quantised = |tiles: &[Tile<ISA_TILE>]| -> Vec<[f32; TILE_ELEMS]> {
            tiles
                .iter()
                .map(|t| {
                    let mut flat = [0.0; TILE_ELEMS];
                    flat.copy_from_slice(t.as_flat());
                    precision::quantize_f16_slice(&mut flat);
                    flat
                })
                .collect()
        };
        let flat = (quantised(&at), quantised(&bt));
        Self {
            op,
            matrices: (a, b, c),
            tiles: (at, bt, ct),
            flat,
        }
    }

    /// `semiring` layer: `simd::mmo_tile` over the pre-quantised flat
    /// tiles, accumulator ping-ponged between two stack tiles.
    pub fn kernel_pass(&self, isa: KernelIsa) -> Matrix {
        let (a, b) = &self.flat;
        let mut d = Matrix::zeros(PROBE_N, PROBE_N);
        for ti in 0..GRID {
            for tj in 0..GRID {
                let mut acc = [0.0f32; TILE_ELEMS];
                acc.copy_from_slice(self.tiles.2[ti * GRID + tj].as_flat());
                let mut out = [0.0f32; TILE_ELEMS];
                for tk in 0..GRID {
                    simd::mmo_tile(
                        isa,
                        self.op,
                        &a[ti * GRID + tk],
                        &b[tk * GRID + tj],
                        &acc,
                        &mut out,
                        ISA_TILE,
                    );
                    std::mem::swap(&mut acc, &mut out);
                }
                let mut tile = Tile::<ISA_TILE>::splat(0.0);
                tile.as_flat_mut().copy_from_slice(&acc);
                tiling::store_d_tile(&mut d, &tile, ti, tj);
            }
        }
        d
    }

    /// `mxu` layer: `Simd2Unit::execute` on pre-loaded tiles — adds the
    /// per-call fp16 quantisation of both operands and the tile
    /// returned by value.
    pub fn unit_pass(&self, unit: &Simd2Unit) -> Matrix {
        let (a, b, c) = &self.tiles;
        let mut d = Matrix::zeros(PROBE_N, PROBE_N);
        for ti in 0..GRID {
            for tj in 0..GRID {
                let mut acc = c[ti * GRID + tj];
                for tk in 0..GRID {
                    acc = unit.execute(self.op, &a[ti * GRID + tk], &b[tk * GRID + tj], &acc);
                }
                tiling::store_d_tile(&mut d, &acc, ti, tj);
            }
        }
        d
    }

    /// `matrix` layer: the tile-copy panel loop — `load_a/b/c_tile` out
    /// of the matrices per `(ti, tj, tk)`, `execute`, `store_d_tile`.
    pub fn panel_pass(&self, unit: &Simd2Unit) -> Matrix {
        let (a, b, c) = &self.matrices;
        let grid = TileGrid::new(PROBE_N, PROBE_N, PROBE_N, ISA_TILE);
        let mut d = Matrix::zeros(PROBE_N, PROBE_N);
        for (ti, tj) in grid.output_coords() {
            let mut acc = tiling::load_c_tile::<ISA_TILE>(self.op, c, ti, tj);
            for tk in 0..grid.k_tiles {
                let at = tiling::load_a_tile::<ISA_TILE>(self.op, a, ti, tk);
                let bt = tiling::load_b_tile::<ISA_TILE>(self.op, b, tk, tj);
                acc = unit.execute(self.op, &at, &bt, &acc);
            }
            tiling::store_d_tile(&mut d, &acc, ti, tj);
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::bits_eq;
    use simd2::{Backend, TiledBackend};

    #[test]
    fn peak_loop_counts_its_macs_and_stays_finite() {
        for isa in KernelIsa::ALL {
            let (macs, value) = peak_pass(isa, 1000);
            assert!(macs >= 6000.0, "{isa}: {macs}");
            assert!(value.is_finite() && value > 0.0, "{isa}: {value}");
        }
        // Work grows with the iteration count, so nothing was folded.
        let (m1, v1) = peak_pass(KernelIsa::Scalar, 10);
        let (m2, v2) = peak_pass(KernelIsa::Scalar, 20);
        assert_eq!(m2, 2.0 * m1);
        assert!(v2 > v1);
    }

    #[test]
    fn every_layer_reproduces_the_backend_bit_for_bit() {
        let isa = simd::selected_isa();
        let unit = Simd2Unit::new();
        for op in crate::metrics::PROBE_OPS {
            let set = ProbeSet::new(op, 42);
            let (a, b, c) = &set.matrices;
            let want = TiledBackend::new().mmo(op, a, b, c).unwrap();
            assert!(bits_eq(&set.kernel_pass(isa), &want), "kernel {op}");
            assert!(bits_eq(&set.unit_pass(&unit), &want), "unit {op}");
            assert!(bits_eq(&set.panel_pass(&unit), &want), "panel {op}");
        }
    }
}
