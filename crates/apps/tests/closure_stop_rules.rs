//! A probe, not a check: how long Leyzorek's closure runs on the fp16
//! engine under three stop rules, and how far each iterate is from the
//! fp32 Floyd–Warshall oracle, for the two multiplicative apps of the
//! `apps-closure` benchmark (MAXRP, seed 2025; MINRP, seed 2026) at
//! `n = 256`, with no iteration cap.
//!
//! Beside each iteration it prints the largest move of the fp32
//! iterate's fp16 image, in fp16 ulps. The rules:
//! * `exact` — the solver's `check_convergence`: the fp32 iterate
//!   repeats bit for bit;
//! * `lattice` — the iterate is kept on the unit's input lattice
//!   (`C = q(D)`, `q` the fp16 round trip) and repeats;
//! * `image` — the fp32 iterate is kept, and its fp16 image repeats.
//!
//! ```text
//! cargo test --release -q -p simd2-apps --test closure_stop_rules -- --ignored --nocapture
//! ```

use simd2::solve::{self, ClosureAlgorithm};
use simd2::{Backend, TiledBackend};
use simd2_apps::paths;
use simd2_matrix::Matrix;
use simd2_semiring::precision::quantize_f16;
use simd2_semiring::OpKind;

/// Far past any rule's stop: the probe ends when all three stopped.
const UNCAPPED: usize = 64;

/// The largest distance, in fp16 ulps of the larger magnitude, between
/// the fp16 images of two iterates' elements (infinities that agree move
/// by nothing).
fn largest_move(prev: &Matrix, next: &Matrix) -> f32 {
    let ulp = |x: f32| {
        let exponent = ((x.abs().to_bits() >> 23) as i32 - 127).max(-14);
        2f32.powi(exponent - 10)
    };
    quantized(prev)
        .as_slice()
        .iter()
        .zip(quantized(next).as_slice())
        .filter(|(p, n)| p != n)
        .map(|(&p, &n)| (p - n).abs() / ulp(p.abs().max(n.abs())))
        .fold(0.0, f32::max)
}

fn quantized(m: &Matrix) -> Matrix {
    let mut q = m.clone();
    for x in q.as_mut_slice() {
        *x = quantize_f16(*x);
    }
    q
}

#[test]
#[ignore = "a probe that prints a table; run it with --nocapture"]
fn closure_stop_rules() {
    let n = 256;
    for (name, op, seed) in [
        ("MAXRP", OpKind::MaxMul, 2025),
        ("MINRP", OpKind::MinMul, 2026),
    ] {
        let g = match op {
            OpKind::MaxMul => paths::generate_maxrp(n, seed),
            _ => paths::generate_minrp(n, seed),
        };
        let adj = g.adjacency(op);
        let oracle = solve::floyd_warshall_closure(op, &adj);
        let error = |m: &Matrix| m.max_abs_diff(&oracle).expect("same shape");
        let cap = ClosureAlgorithm::Leyzorek.worst_case_iterations(n);
        println!("{name} (n = {n}, seed {seed}, Leyzorek's cap {cap})");
        println!("iteration  error(fp32 iterate)  error(lattice iterate)  largest move  stops");
        let mut be = TiledBackend::new();
        let (mut raw, mut lattice) = (adj.clone(), quantized(&adj));
        let mut stopped = [None; 3];
        for iteration in 1..=UNCAPPED {
            let next_raw = be.mmo(op, &raw, &raw, &raw).unwrap();
            let next_lattice = quantized(&be.mmo(op, &lattice, &lattice, &lattice).unwrap());
            let repeats = [
                solve::check_convergence(&raw, &next_raw),
                next_lattice == lattice,
                quantized(&next_raw) == quantized(&raw),
            ];
            let mut stops = Vec::new();
            for ((rule, stop), repeat) in ["exact", "lattice", "image"]
                .into_iter()
                .zip(&mut stopped)
                .zip(repeats)
            {
                if repeat && stop.is_none() {
                    *stop = Some(iteration);
                    stops.push(rule);
                }
            }
            let (e_raw, e_lattice) = (error(&next_raw), error(&next_lattice));
            let moved = largest_move(&raw, &next_raw);
            println!(
                "{iteration:>9}  {e_raw:>19.3e}  {e_lattice:>22.3e}  {moved:>12}  {}",
                stops.join(" ")
            );
            (raw, lattice) = (next_raw, next_lattice);
            if stopped.iter().all(Option::is_some) {
                break;
            }
        }
        println!("{name}: exact / lattice / image stop at {stopped:?}\n");
        assert!(
            stopped.iter().all(Option::is_some),
            "{name}: a rule never stopped"
        );
    }
}
