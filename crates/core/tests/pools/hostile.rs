//! What the two row-walk differentials share beside the generators of
//! `pools/mod.rs`: the API-level one (`proptest_rows.rs`) and the
//! kernel-level one in `src/backend/rows.rs`, which includes this file
//! by path — as does `tests/fold_order.rs`, for [`quantized`].

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use simd2_matrix::Matrix;
use simd2_mxu::PrecisionMode::{self, Fp16Input, Fp32Input, Int8Input};
use simd2_semiring::precision::{quantize_f16, quantize_int8};
use simd2_semiring::OpKind;

fn nan(bits: u32) -> f32 {
    let x = f32::from_bits(bits);
    assert!(x.is_nan());
    x
}

/// Non-ordinary values `op`'s sparse contract must survive, i.e. those
/// for which a term through the annihilator is an exact no-op in the
/// dense fold too. The min/max-reduced path algebras ignore NaN and
/// absorb their `±∞` annihilator whatever the other factor is, and
/// or-and only asks "non-zero?", so they take everything. A `+`
/// reduction propagates `0·∞ = NaN`, min-mul flips sign on negative
/// factors, and max-mul's skipped product must be exactly `+0.0`, so
/// those take only signed zeros and fp16-underflow magnitudes.
pub(crate) fn hostile(op: OpKind) -> Vec<f32> {
    let tiny = [1.0e-9, 3.0e-8, 5.0e-5];
    match op {
        OpKind::MinPlus | OpKind::MaxPlus | OpKind::MinMax | OpKind::MaxMin | OpKind::OrAnd => {
            let mut v = vec![
                0.0,
                -0.0,
                f32::INFINITY,
                f32::NEG_INFINITY,
                nan(0x7FC0_1234),
                nan(0xFFA0_0001),
                65520.0, // rounds to fp16 infinity
                -1.0e-9,
            ];
            v.extend(tiny);
            v
        }
        OpKind::PlusMul | OpKind::PlusNorm => vec![-0.0, -1.0e-9, -3.5, tiny[0], tiny[1], tiny[2]],
        OpKind::MinMul => vec![0.0, nan(0x7FC0_1234), tiny[0], tiny[1], tiny[2]],
        OpKind::MaxMul => tiny.to_vec(),
    }
}

/// Forces `m` into the 2:4 pattern: at most two seeded positions of
/// every aligned group of four along a row keep their value.
pub(crate) fn structure_2_4(m: &Matrix, zero: f32, seed: u64) -> Matrix {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut out = m.clone();
    for r in 0..out.rows() {
        for group in out.row_mut(r).chunks_mut(4) {
            let keep = [rng.gen_range(0..4usize), rng.gen_range(0..4usize)];
            for (i, v) in group.iter_mut().enumerate() {
                if !keep.contains(&i) {
                    *v = zero;
                }
            }
        }
    }
    out
}

/// `m` as the scalar quantiser of `precision` rounds it.
pub(crate) fn quantized(m: &Matrix, precision: PrecisionMode) -> Matrix {
    Matrix::from_fn(m.rows(), m.cols(), |r, c| match precision {
        Fp32Input => m[(r, c)],
        Fp16Input => quantize_f16(m[(r, c)]),
        Int8Input => quantize_int8(m[(r, c)], 1.0),
    })
}

pub(crate) fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|x| x.to_bits()).collect()
}
