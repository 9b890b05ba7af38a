//! Or-and on bit rows, end to end.
//!
//! Every or-and step of a coordinate-free unit is one bit walk: `B`'s
//! rows through the unit's pack hook become truthiness bits, each output
//! row starts from the truthiness of its raw `C` row, ORs in the `B` bit
//! row of every truthy element of its hook-quantised `A` row, and is
//! written once as `1.0` / `+0.0`. Every case here must equal
//! [`reference::mmo`] on the unit's quantised operands, the forced tile
//! chain (`pools/chain.rs`) and the same engine pinned to the AVX2 and
//! scalar leaves, bit for bit:
//! * `Fp16Input`, `Fp32Input` and `Int8Input` units, at one and two
//!   workers;
//! * output widths 1, 63, 64, 65 and 200 — either side of a bit word
//!   and of the 256- and 512-bit accumulators — and `k` either side of
//!   a word;
//! * NaNs (truthy), `±0.0`, and values the pack hook rounds to zero
//!   (`1e-8` in fp16, `0.3` in int8) in each of `A`, `B` and `C`, `C`
//!   read raw;
//! * rows of `A` and `C` with nothing truthy, and `B` rows that store
//!   nothing, before or only after the hook.
//!
//! The `dense-mmo` benchmark's oracle is a scalar-pinned `Simd2Unit`,
//! which runs this walk too: the chain is the independent check.

use std::sync::Arc;

use simd2::{Backend, Degrade, MmoArgs, Parallelism, RowCount, Schedule, TiledBackend};
use simd2_matrix::{reference, Matrix};
use simd2_mxu::{MmoUnit, PrecisionMode, Simd2Unit};
use simd2_semiring::simd::KernelIsa;
use simd2_semiring::OpKind;
use simd2_trace::{NullSink, Tracer};

#[path = "pools/chain.rs"]
mod chain;
use chain::ChainOnly;

const OP: OpKind = OpKind::OrAnd;

const PRECISIONS: [PrecisionMode; 3] = [
    PrecisionMode::Fp16Input,
    PrecisionMode::Fp32Input,
    PrecisionMode::Int8Input,
];

/// Values an operand draws from: truthy at every precision, falsy at
/// every one, and truthy only before the hook at some.
const POOL: [f32; 12] = [
    1.0,
    -2.0,
    f32::NAN,
    f32::INFINITY,
    f32::NEG_INFINITY,
    65520.0, // fp16 infinity
    0.0,
    -0.0,
    1.0e-8, // zero in fp16 and int8
    -1.0e-8,
    0.3, // zero in int8 only
    f32::from_bits(0xFFA0_0001),
];

fn hash(x: usize, y: usize, salt: u64) -> u64 {
    let mut h = (x as u64) << 32 ^ y as u64 ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^= h >> 29;
    h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^ h >> 32
}

/// A `rows × cols` operand with about `density` of its elements drawn
/// from [`POOL`] and the rest `0.0`; every fifth row is all `±0.0` and
/// every seventh all `1e-8` — nothing stored, and nothing left after an
/// fp16 or int8 hook.
fn operand(rows: usize, cols: usize, density: f64, salt: u64) -> Matrix {
    Matrix::from_fn(rows, cols, |r, c| {
        let h = hash(r, c, salt);
        match r {
            _ if r % 5 == 3 => [0.0, -0.0][c % 2],
            _ if r % 7 == 4 => 1.0e-8,
            _ if (h % 1000) as f64 >= density * 1000.0 => 0.0,
            _ => POOL[(h >> 20) as usize % POOL.len()],
        }
    })
}

/// `m` as `unit`'s pack hook leaves it.
fn hooked(unit: &Simd2Unit, m: &Matrix) -> Matrix {
    let mut q = m.clone();
    unit.quantize_packed(q.as_mut_slice());
    q
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|x| x.to_bits()).collect()
}

#[test]
fn bit_walks_match_the_reference_and_the_forced_chain() {
    let m = 37;
    for precision in PRECISIONS {
        let unit = Simd2Unit::with_precision(precision);
        for n in [1, 63, 64, 65, 200] {
            for (k, density) in [(1, 0.9), (63, 0.05), (64, 0.5), (130, 0.3), (200, 0.02)] {
                let salt = (n * 1000 + k) as u64;
                let a = operand(m, k, density, salt);
                let b = operand(k, n, density, salt ^ 0xB);
                let c = operand(m, n, 0.1, salt ^ 0xC);
                let ctx = format!("{precision:?} {m}x{n}x{k} at {density}");
                let args = MmoArgs::new(OP, &a, &b, &c);
                let want = reference::mmo(OP, &hooked(&unit, &a), &hooked(&unit, &b), &c).unwrap();
                let want = bits(&want);
                let chained = TiledBackend::with_unit(ChainOnly(unit))
                    .execute(&args, Schedule::Configured)
                    .unwrap();
                assert_eq!(bits(&chained), want, "{ctx}: chain");
                for workers in [1, 2] {
                    let mut be = TiledBackend::with_unit(unit);
                    be.set_parallelism(Parallelism::Threads(workers));
                    let got = be.execute(&args, Schedule::Configured).unwrap();
                    assert_eq!(bits(&got), want, "{ctx}: {workers} workers");
                    let walked = RowCount {
                        bit_mmos: 1,
                        ..RowCount::default()
                    };
                    assert_eq!(be.row_count(), walked, "{ctx}: {workers} workers");
                    // Down the tiers, as a resilience layer pins a
                    // suspect one (never up).
                    for pin in [KernelIsa::Avx2, KernelIsa::Scalar] {
                        if be.degrade(Degrade::PinKernelIsa(pin)) {
                            let got = be.execute(&args, Schedule::Configured).unwrap();
                            assert_eq!(bits(&got), want, "{ctx}: pinned to {pin}");
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn bit_walks_run_on_the_selected_tier() {
    // The engine's bit leaves are its unit's tier: the vector leaves on a
    // vector host, the scalar leaf on the forced-scalar leg.
    let isa = TiledBackend::new().kernel_isa();
    println!("or-and bit walks run on the {isa} bit leaves");
    assert_eq!(isa, simd2_semiring::simd::selected_isa());
    if std::env::var_os("SIMD2_FORCE_SCALAR").is_some_and(|v| !v.is_empty() && v != "0") {
        assert_eq!(isa, KernelIsa::Scalar);
    }
}

#[test]
fn nothing_truthy_leaves_only_the_seed() {
    // All-false `A` and all-false `B`: `D` is the truthiness of `C`, as
    // `1.0` / `+0.0`; an empty `k` too.
    let unit = Simd2Unit::new();
    let c = Matrix::from_fn(20, 70, |r, col| POOL[(r + col) % POOL.len()]);
    let want = Matrix::from_fn(20, 70, |r, col| {
        let x = c[(r, col)];
        if x != 0.0 {
            1.0
        } else {
            0.0
        }
    });
    for k in [0, 9, 100] {
        let falsy = |rows, cols| Matrix::from_fn(rows, cols, |r, _| [-0.0, 1.0e-8][r % 2]);
        let (a, b) = (falsy(20, k), falsy(k, 70));
        let truthy = Matrix::filled(k, 70, f32::NAN);
        for (a, b) in [(&a, &b), (&a, &truthy)] {
            let mut be = TiledBackend::with_unit(unit);
            let got = be.mmo(OP, a, b, &c).unwrap();
            assert_eq!(bits(&got), bits(&want), "k = {k}");
            assert_eq!(be.row_count().bit_mmos, 1, "k = {k}");
        }
    }
}

#[test]
fn bit_walks_move_their_counters_and_no_other() {
    let counters = |names: &[&str; 3]| {
        let snap = simd2_trace::snapshot();
        names.map(|name| {
            snap.counters
                .iter()
                .find(|c| c.name == name)
                .map_or(0, |c| c.value)
        })
    };
    let names = [
        "core.row_mmos.bits",
        "core.row_mmos.sweep",
        "core.row_mmos.scatter",
    ];
    let (a, b, c) = (
        operand(40, 50, 0.02, 1),
        operand(50, 30, 0.02, 2),
        operand(40, 30, 0.5, 3),
    );
    let tracer = || Tracer::to(Arc::new(NullSink));
    let mut be = TiledBackend::new().with_tracer(tracer());
    let mut chain = TiledBackend::with_unit(ChainOnly(Simd2Unit::new())).with_tracer(tracer());
    for sparse in [false, true] {
        // Whatever `A` and `B` store, a bit walk; never a sweep or a
        // scatter, and never on a unit that is not coordinate-free.
        let a = if sparse {
            a.clone()
        } else {
            operand(40, 50, 1.0, 4)
        };
        let before = counters(&names);
        let got = be.mmo(OP, &a, &b, &c).unwrap();
        let want = chain.mmo(OP, &a, &b, &c).unwrap();
        let after = counters(&names);
        assert_eq!(bits(&got), bits(&want), "sparse A: {sparse}");
        let moved: Vec<u64> = after.iter().zip(before).map(|(x, y)| x - y).collect();
        assert_eq!(moved, [1, 0, 0], "sparse A: {sparse}");
    }
    let count = be.row_count();
    assert_eq!((count.bit_mmos, count.sparse_mmos), (2, 0));
    assert_eq!((count.fma_terms, count.skipped_terms), (0, 0));
    assert_eq!(chain.row_count(), RowCount::default());
    assert_eq!(be.op_count(), chain.op_count());
}

#[test]
fn sparse_operands_hook_only_their_truthy_elements() {
    // Operands sparse enough that the walk hooks only their truthy
    // elements, among them values the hook rounds to zero and NaNs:
    // the same bits as hooking every element, as the chain does.
    let sparse = |rows, cols, salt| {
        Matrix::from_fn(rows, cols, |r, c| {
            let h = hash(r, c, salt);
            if h.is_multiple_of(200) {
                POOL[(h >> 20) as usize % POOL.len()]
            } else {
                [0.0, -0.0][(h >> 8) as usize % 2]
            }
        })
    };
    for precision in PRECISIONS {
        let unit = Simd2Unit::with_precision(precision);
        for (m, k, n) in [(40, 300, 70), (130, 130, 130)] {
            let (a, b) = (sparse(m, k, 1), sparse(k, n, 2));
            let c = operand(m, n, 0.05, 3);
            let ctx = format!("{precision:?} {m}x{n}x{k}");
            let want = reference::mmo(OP, &hooked(&unit, &a), &hooked(&unit, &b), &c).unwrap();
            let chained = TiledBackend::with_unit(ChainOnly(unit)).mmo(OP, &a, &b, &c);
            assert_eq!(bits(&chained.unwrap()), bits(&want), "{ctx}: chain");
            for workers in [1, 2] {
                let mut be = TiledBackend::with_unit(unit);
                be.set_parallelism(Parallelism::Threads(workers));
                let got = be.mmo(OP, &a, &b, &c).unwrap();
                assert_eq!(bits(&got), bits(&want), "{ctx}: {workers} workers");
                assert_eq!(be.row_count().bit_mmos, 1, "{ctx}");
            }
        }
    }
}
