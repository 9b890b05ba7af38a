//! Per-tier leaf rates: every `simd` entry timed on every tier the host
//! supports, at 256, 1,024 and 4,096 elements and 1-, 8- and 64-tile
//! chains, plus the engine's row sweep: one [`SWEEP_STRIP`]-column
//! strip folding 1 and 8 terms (`sweep_strip.*`, sized by terms), where
//! a call's fixed cost weighs most against its work. The engine also
//! calls `scan` and fits once per 256-element tile. The benchmark times
//! kernels on `selected_isa()` only, so this probe is what sees the
//! other tiers. It checks nothing and prints a table — one line per
//! entry and size, the nanoseconds per call of the fastest of several
//! timed batches on each tier (`-` where the entry has no leaf on that
//! tier):
//!
//! ```text
//! cargo test --release -q -p simd2-semiring --test leaf_rates -- --ignored --nocapture
//! ```
//!
//! Timings on a shared host swing between runs: compare two builds by
//! running their probes alternately, several rounds each, and reading
//! each line's median.

use std::hint::black_box;
use std::time::{Duration, Instant};

use simd2_semiring::simd::{
    self, FmaLanes, HalfFit, HalfLanes, KernelIsa, CHAIN_ELEMS, SWEEP_STRIP,
};
use simd2_semiring::{OpKind, ALL_OPS};

/// Element counts of the slice entries.
const SIZES: [usize; 3] = [256, 1024, 4096];
/// Tile pairs of the chain entries.
const CHAINS: [usize; 3] = [1, 8, 64];
/// Walk lengths of the one-strip sweeps.
const TERMS: [usize; 2] = [1, 8];
/// Timed batches per line; the line reports the fastest, which the
/// host's other work can only slow down.
const BATCHES: usize = 15;
/// Wall time one batch aims at.
const BATCH: Duration = Duration::from_micros(1000);

/// Nanoseconds per call of `f` in the fastest of [`BATCHES`] batches of
/// a call count sized to [`BATCH`].
fn time(mut f: impl FnMut()) -> f64 {
    let mut reps = 1u32;
    loop {
        let t = Instant::now();
        (0..reps).for_each(|_| f());
        if t.elapsed() >= BATCH || reps >= 1 << 20 {
            break;
        }
        reps *= 2;
    }
    (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            (0..reps).for_each(|_| f());
            t.elapsed().as_nanos() as f64 / f64::from(reps)
        })
        .fold(f64::INFINITY, f64::min)
}

/// `len` values on the fp16 lattice, NaN-free, with one in `1 / stored`
/// differing from `0.0` (`stored` = 1: all of them but the ones the
/// pattern lands on zero).
fn values(len: usize, stored: usize, salt: usize) -> Vec<f32> {
    (0..len)
        .map(|i| {
            let h = (i + salt).wrapping_mul(2_654_435_761) >> 7;
            if h.is_multiple_of(stored) {
                (h % 97) as f32 * 0.25 - 8.0
            } else {
                0.0
            }
        })
        .collect()
}

/// One table line: `entry`, `size`, then `rate(isa)` per tier, `None`
/// printed as `-`.
fn line(
    tiers: &[KernelIsa],
    entry: &str,
    size: usize,
    mut rate: impl FnMut(KernelIsa) -> Option<f64>,
) {
    let cells: Vec<String> = tiers
        .iter()
        .map(|&isa| rate(isa).map_or("-".into(), |ns| format!("{ns:.0}")))
        .collect();
    println!(
        "{entry:<22} {size:>5} {}",
        cells.iter().map(|c| format!("{c:>10}")).collect::<String>()
    );
}

#[test]
#[ignore = "a timing probe, not a check: run with --release --ignored --nocapture"]
fn leaf_rates() {
    let tiers: Vec<KernelIsa> = KernelIsa::ALL
        .into_iter()
        .filter(|isa| isa.is_supported())
        .collect();
    let header: String = tiers
        .iter()
        .map(|isa| format!("{:>10}", isa.name()))
        .collect();
    println!(
        "\n{:<22} {:>5} {header}   (ns per call, fastest of {BATCHES} batches)",
        "entry", "size"
    );

    for tiles in CHAINS {
        let (a, b) = (
            values(tiles * CHAIN_ELEMS, 1, 1),
            values(tiles * CHAIN_ELEMS, 1, 2),
        );
        let mut acc = values(CHAIN_ELEMS, 1, 3);
        for op in ALL_OPS {
            line(&tiers, &format!("mmo_chain.{op}"), tiles, |isa| {
                Some(time(|| {
                    simd::mmo_chain(isa, op, black_box(&a), black_box(&b), &mut acc)
                }))
            });
        }
        line(&tiers, "fma_lanes.mmo_chain", tiles, |isa| {
            let fma = FmaLanes::new(isa, OpKind::PlusMul)?;
            Some(time(|| {
                fma.mmo_chain(black_box(&a), black_box(&b), &mut acc)
            }))
        });
        for op in [OpKind::MinMax, OpKind::MaxMin] {
            line(&tiers, &format!("half_lanes.{op}"), tiles, |isa| {
                let half = HalfLanes::new(isa, op)?;
                let mut a_img = vec![0; tiles * simd::HALF_A_WORDS];
                let mut b_img = vec![0; tiles * simd::HALF_B_WORDS];
                let mut fits = vec![HalfFit::Nan; tiles];
                half.image_a(&a, &mut a_img, &mut fits);
                half.image_b(&b, &mut b_img, &mut fits);
                Some(time(|| {
                    half.mmo_chain(black_box(&a_img), black_box(&b_img), &mut acc)
                }))
            });
        }
    }

    // The engine's sweep: one strip of a packed `B` strip as wide as the
    // row, the walk a short run of one `k` block.
    for terms in TERMS {
        let (ks, vals) = (
            (0..terms as u32).map(|t| 3 * t).collect::<Vec<u32>>(),
            values(terms, 1, 9),
        );
        let b = values(3 * terms * SWEEP_STRIP, 1, 10);
        let mut row = values(SWEEP_STRIP, 1, 11);
        for op in [OpKind::PlusMul, OpKind::MinPlus, OpKind::OrAnd] {
            line(&tiers, &format!("sweep_strip.{op}"), terms, |isa| {
                Some(time(|| {
                    simd::sweep_row(
                        isa,
                        op,
                        black_box(&ks),
                        black_box(&vals),
                        black_box(&b),
                        SWEEP_STRIP,
                        &mut row,
                    )
                }))
            });
        }
    }

    for size in SIZES {
        let xs = values(size, 2, 4);
        let sparse = values(size, 100, 5);
        let tiles = size / CHAIN_ELEMS;
        let mut fits = vec![HalfFit::Nan; tiles];
        line(&tiers, "fma_lanes.fits", size, |isa| {
            let fma = FmaLanes::new(isa, OpKind::PlusMul)?;
            Some(time(|| fma.fits(black_box(&xs), &mut fits)))
        });
        let half = |isa| HalfLanes::new(isa, OpKind::MinMax);
        line(&tiers, "half_lanes.image_a", size, |isa| {
            let (half, mut img) = (half(isa)?, vec![0; tiles * simd::HALF_A_WORDS]);
            Some(time(|| half.image_a(black_box(&xs), &mut img, &mut fits)))
        });
        line(&tiers, "half_lanes.image_b", size, |isa| {
            let (half, mut img) = (half(isa)?, vec![0; tiles * simd::HALF_B_WORDS]);
            Some(time(|| half.image_b(black_box(&xs), &mut img, &mut fits)))
        });

        // One output row of `size` columns folding an eight-term walk.
        let (ks, vals) = ((0..8).collect::<Vec<u32>>(), values(8, 1, 6));
        let b = values(8 * size, 1, 7);
        let mut row = values(size, 1, 8);
        for op in [OpKind::PlusMul, OpKind::MinPlus, OpKind::OrAnd] {
            line(&tiers, &format!("sweep_row.{op}"), size, |isa| {
                Some(time(|| {
                    simd::sweep_row(
                        isa,
                        op,
                        &ks,
                        black_box(&vals),
                        black_box(&b),
                        size,
                        &mut row,
                    )
                }))
            });
        }

        line(&tiers, "scan", size, |isa| {
            Some(time(|| {
                black_box(simd::scan(isa, 0.0, black_box(&xs)));
            }))
        });
        // Room for every element is the dense branch; room for the
        // stored count of a row that stores one in a hundred the sparse.
        let (mut cols, mut vals) = (vec![0u32; size], vec![0.0f32; size]);
        line(&tiers, "compact.dense", size, |isa| {
            Some(time(|| {
                black_box(simd::compact(
                    isa,
                    0.0,
                    black_box(&xs),
                    &mut cols,
                    &mut vals,
                ));
            }))
        });
        let room = sparse.iter().filter(|&&x| x != 0.0).count();
        line(&tiers, "compact.sparse", size, |isa| {
            Some(time(|| {
                let (cols, vals) = (&mut cols[..room], &mut vals[..room]);
                black_box(simd::compact(isa, 0.0, black_box(&sparse), cols, vals));
            }))
        });

        let mut bits = vec![0u64; simd::bit_words(size)];
        line(&tiers, "truthy_bits", size, |isa| {
            Some(time(|| {
                black_box(simd::truthy_bits(isa, black_box(&xs), &mut bits));
            }))
        });
        // A 256-row pick, every other row set, over a table of rows
        // `size` bits wide.
        let pick = vec![0x5555_5555_5555_5555u64; simd::bit_words(256)];
        let table: Vec<u64> = (0..simd::table_words(pick.len(), bits.len()))
            .map(|i| (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        line(&tiers, "or_rows", size, |isa| {
            Some(time(|| {
                simd::or_rows(isa, black_box(&pick), black_box(&table), &mut bits)
            }))
        });
        let mut out = vec![0.0f32; size];
        line(&tiers, "bits_to_f32", size, |isa| {
            Some(time(|| simd::bits_to_f32(isa, black_box(&bits), &mut out)))
        });
        let mut q = xs.clone();
        line(&tiers, "quantize_f16_slice", size, |isa| {
            Some(time(|| simd::quantize_f16_slice(isa, black_box(&mut q))))
        });
    }
}
