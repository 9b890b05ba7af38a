//! Property-based tests of the functional SIMD² unit.

use proptest::prelude::*;
use proptest::strategy::ValueTree;
use simd2_matrix::{reference, Tile};
use simd2_mxu::{MmaUnit, PrecisionMode, Simd2Unit};
use simd2_semiring::{OpKind, ALL_OPS};

fn op_strategy() -> impl Strategy<Value = OpKind> {
    (0..ALL_OPS.len()).prop_map(|i| ALL_OPS[i])
}

/// In-domain fp16-exact tile values for the given op.
fn tile_strategy(op: OpKind) -> impl Strategy<Value = Tile<4>> {
    proptest::collection::vec(0u16..64, 16).prop_map(move |vals| {
        Tile::from_fn(|r, c| {
            let raw = f32::from(vals[r * 4 + c]);
            match op {
                OpKind::OrAnd => {
                    if raw >= 32.0 {
                        1.0
                    } else {
                        0.0
                    }
                }
                OpKind::MinMul | OpKind::MaxMul => 0.5 + raw / 128.0,
                _ => raw * 0.25,
            }
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The unit matches the reference triple loop exactly on every op for
    /// arbitrary in-domain tiles (fp16-exact, so both see the same
    /// operand bits).
    #[test]
    fn unit_matches_reference(op in op_strategy(), seed in any::<u32>()) {
        let mut runner = proptest::test_runner::TestRunner::deterministic();
        let _ = seed;
        let a = tile_strategy(op).new_tree(&mut runner).unwrap().current();
        let b = tile_strategy(op).new_tree(&mut runner).unwrap().current();
        let c = Tile::<4>::splat(op.reduce_identity_f32());
        let got = Simd2Unit::new().execute(op, &a, &b, &c);
        let want = reference::mmo(op, &a.to_matrix(), &b.to_matrix(), &c.to_matrix()).unwrap();
        let want = Tile::<4>::try_from_matrix(&want).unwrap();
        prop_assert_eq!(got, want, "{}", op);
    }

    /// Idempotent algebras: feeding the result back as the accumulator
    /// changes nothing (the unit-level fixed-point property behind
    /// convergence checks).
    #[test]
    fn idempotent_ops_are_stable_under_reaccumulation(seed in any::<u32>()) {
        let mut runner = proptest::test_runner::TestRunner::deterministic();
        let _ = seed;
        for op in ALL_OPS {
            if !op.reduce_is_idempotent() {
                continue;
            }
            let a = tile_strategy(op).new_tree(&mut runner).unwrap().current();
            let b = tile_strategy(op).new_tree(&mut runner).unwrap().current();
            let unit = Simd2Unit::new();
            let first = unit.execute_no_acc(op, &a, &b);
            let second = unit.execute(op, &a, &b, &first);
            prop_assert_eq!(second, first, "{}", op);
        }
    }

    /// Monotonicity of min-reductions: improving the accumulator can only
    /// improve (or keep) every output element.
    #[test]
    fn min_plus_accumulator_monotonicity(seed in any::<u32>(), better in 0u8..16) {
        let mut runner = proptest::test_runner::TestRunner::deterministic();
        let _ = seed;
        let op = OpKind::MinPlus;
        let a = tile_strategy(op).new_tree(&mut runner).unwrap().current();
        let b = tile_strategy(op).new_tree(&mut runner).unwrap().current();
        let unit = Simd2Unit::new();
        let c1 = Tile::<4>::splat(f32::INFINITY);
        let c2 = Tile::<4>::splat(f32::from(better));
        let d1 = unit.execute(op, &a, &b, &c1);
        let d2 = unit.execute(op, &a, &b, &c2);
        for r in 0..4 {
            for c in 0..4 {
                prop_assert!(d2.get(r, c) <= d1.get(r, c));
                prop_assert!(d2.get(r, c) <= f32::from(better));
            }
        }
    }

    /// fp32 mode never produces *larger* quantisation error than fp16
    /// mode against the reference (sanity of the precision ladder).
    #[test]
    fn precision_ladder_is_ordered(seed in any::<u32>()) {
        let _ = seed;
        let op = OpKind::MaxMul; // the drift-prone algebra
        // Non-fp16-exact operands.
        let a = Tile::<4>::from_fn(|r, c| 0.5 + ((r * 4 + c) as f32) * 0.061);
        let b = Tile::<4>::from_fn(|r, c| 0.5 + ((c * 4 + r) as f32) * 0.043);
        let cacc = Tile::<4>::splat(op.reduce_identity_f32());
        let want = reference::mmo(op, &a.to_matrix(), &b.to_matrix(), &cacc.to_matrix()).unwrap();
        let want = Tile::<4>::try_from_matrix(&want).unwrap();
        let err = |mode| {
            Simd2Unit::with_precision(mode).execute(op, &a, &b, &cacc).max_abs_diff(&want)
        };
        prop_assert!(err(PrecisionMode::Fp32Input) <= err(PrecisionMode::Fp16Input));
        prop_assert!(err(PrecisionMode::Fp16Input) <= err(PrecisionMode::Int8Input));
    }

    /// The MMA baseline agrees with the SIMD² unit on plus-mul and rejects
    /// everything else, for arbitrary tiles.
    #[test]
    fn mma_baseline_contract(seed in any::<u32>()) {
        let mut runner = proptest::test_runner::TestRunner::deterministic();
        let _ = seed;
        let a = tile_strategy(OpKind::PlusMul).new_tree(&mut runner).unwrap().current();
        let b = tile_strategy(OpKind::PlusMul).new_tree(&mut runner).unwrap().current();
        let c = Tile::<4>::splat(0.0);
        let mma = MmaUnit::new();
        prop_assert_eq!(
            mma.execute(OpKind::PlusMul, &a, &b, &c).unwrap(),
            Simd2Unit::new().execute(OpKind::PlusMul, &a, &b, &c)
        );
        for op in simd2_semiring::EXTENDED_OPS {
            prop_assert!(mma.execute(op, &a, &b, &c).is_err());
        }
    }
}
