//! `simd2` — command-line front end to the SIMD² reproduction.
//!
//! ```text
//! simd2 ops                          list the nine operations
//! simd2 solve --op min-plus --n 64   closure solve on a seeded workload
//! simd2 micro --op min-max --n 4096  modelled microbenchmark speedup
//! simd2 asm check  <file.s>          assemble, print encodings
//! simd2 asm run    <file.s>          assemble and execute on the warp executor
//! simd2 asm build  <file.s> <out>    assemble to a binary program image
//! ```

use std::process::ExitCode;

use simd2_repro::core::solve::{closure, ClosureAlgorithm};
use simd2_repro::core::{Backend, IsaBackend, ReferenceBackend, TiledBackend};
use simd2_repro::gpu::Gpu;
use simd2_repro::isa;
use simd2_repro::matrix::gen;
use simd2_repro::semiring::{OpKind, ALL_OPS};

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  simd2 ops\n  simd2 solve --op <op> --n <dim> [--seed S] [--algorithm \
         leyzorek|bellman-ford] [--backend reference|tiled|isa] [--no-convergence]\n  simd2 \
         micro --op <op> --n <dim>\n  simd2 asm check|run <file.s>\n  simd2 asm build <file.s> \
         <out.bin>"
    );
    ExitCode::from(2)
}

fn flag_value(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn cmd_ops() -> ExitCode {
    println!(
        "{:<11} {:<16} {:<9} {:<6} representative algorithm",
        "op", "PTX", "⊕", "⊗"
    );
    for op in ALL_OPS {
        let (r, c) = op.symbols();
        println!(
            "{:<11} {:<16} {:<9} {:<6} {}",
            op.name(),
            op.ptx_mnemonic(),
            r,
            c,
            op.representative_algorithm()
        );
    }
    ExitCode::SUCCESS
}

fn cmd_solve(args: &[String]) -> ExitCode {
    let Some(op) = flag_value(args, "--op").and_then(|s| s.parse::<OpKind>().ok()) else {
        eprintln!("solve: missing or unknown --op");
        return usage();
    };
    if !op.is_closure_algebra() {
        eprintln!("solve: {op} has no fixed-point closure (try min-plus, max-min, or-and, …)");
        return ExitCode::from(2);
    }
    let n: usize = flag_value(args, "--n")
        .and_then(|s| s.parse().ok())
        .unwrap_or(64);
    let seed: u64 = flag_value(args, "--seed")
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    let algorithm = match flag_value(args, "--algorithm").as_deref() {
        Some("bellman-ford") => ClosureAlgorithm::BellmanFord,
        _ => ClosureAlgorithm::Leyzorek,
    };
    let convergence = !args.iter().any(|a| a == "--no-convergence");
    let g = match op {
        OpKind::MinMul | OpKind::MaxMul => {
            gen::reliability_graph(n, (8.0 / n as f64).min(0.5), seed)
        }
        _ => gen::connected_gnp_graph(n, (8.0 / n as f64).min(0.5), 1.0, 9.0, seed),
    };
    let adj = match op {
        OpKind::OrAnd => g.reachability(),
        _ => g.adjacency(op),
    };
    let backend_name = flag_value(args, "--backend").unwrap_or_else(|| "tiled".to_owned());
    let (result, tile_mmos, name) = match backend_name.as_str() {
        "reference" => {
            let mut be = ReferenceBackend::new();
            let r = closure(&mut be, op, &adj, algorithm, convergence).expect("square");
            (r, be.op_count().tile_mmos, be.name())
        }
        "isa" => {
            let mut be = IsaBackend::new();
            let r = closure(&mut be, op, &adj, algorithm, convergence).expect("square");
            (r, be.op_count().tile_mmos, be.name())
        }
        _ => {
            let mut be = TiledBackend::new();
            let r = closure(&mut be, op, &adj, algorithm, convergence).expect("square");
            (r, be.op_count().tile_mmos, be.name())
        }
    };
    println!(
        "{} closure of a {n}-vertex seeded workload ({} edges) on `{name}`:",
        op,
        g.edge_count()
    );
    println!(
        "  {} iterations ({}), {} matrix mmos, {} tile mmos, converged early: {}",
        result.stats.iterations,
        algorithm.label(),
        result.stats.matrix_mmos,
        tile_mmos,
        result.stats.converged_early
    );
    let finite = result
        .closure
        .as_slice()
        .iter()
        .filter(|x| x.is_finite())
        .count();
    println!("  finite entries: {finite}/{}", result.closure.len());
    ExitCode::SUCCESS
}

fn cmd_micro(args: &[String]) -> ExitCode {
    let Some(op) = flag_value(args, "--op").and_then(|s| s.parse::<OpKind>().ok()) else {
        eprintln!("micro: missing or unknown --op");
        return usage();
    };
    let n: usize = flag_value(args, "--n")
        .and_then(|s| s.parse().ok())
        .unwrap_or(4096);
    let gpu = Gpu::default();
    let r = simd2_repro::core::micro::MicroBench::square(op, n).time(&gpu);
    println!(
        "{op} {n}x{n}x{n}: CUDA cores {:.3} ms, SIMD2 units {:.3} ms -> {:.2}x",
        r.cuda.as_millis(),
        r.simd2.as_millis(),
        r.speedup()
    );
    ExitCode::SUCCESS
}

fn cmd_asm(args: &[String]) -> ExitCode {
    let (Some(mode), Some(path)) = (args.first(), args.get(1)) else {
        return usage();
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("asm: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let program = match isa::asm::parse(&text) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("asm: {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match mode.as_str() {
        "check" => {
            for instr in &program {
                println!("{:#018x}  {instr}", instr.encode());
            }
            ExitCode::SUCCESS
        }
        "build" => {
            let Some(out) = args.get(2) else {
                return usage();
            };
            let image = isa::to_image(&program);
            if let Err(e) = std::fs::write(out, &image) {
                eprintln!("asm: cannot write {out}: {e}");
                return ExitCode::FAILURE;
            }
            println!(
                "wrote {} bytes ({} instructions) to {out}",
                image.len(),
                program.len()
            );
            ExitCode::SUCCESS
        }
        "trace" => {
            let mem_elems: usize = flag_value(args, "--mem")
                .and_then(|s| s.parse().ok())
                .unwrap_or(65536);
            let mut exec = isa::Executor::new(isa::SharedMemory::new(mem_elems));
            match exec.run_traced(&program) {
                Ok((stats, trace)) => {
                    for entry in &trace {
                        println!("{entry}");
                    }
                    println!("-- {} instructions retired", stats.total_instructions());
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("asm: execution fault: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "run" => {
            let mem_elems: usize = flag_value(args, "--mem")
                .and_then(|s| s.parse().ok())
                .unwrap_or(65536);
            let mut exec = isa::Executor::new(isa::SharedMemory::new(mem_elems));
            match exec.run(&program) {
                Ok(stats) => {
                    println!(
                        "executed {} instructions: {} loads, {} fills, {} mmos, {} stores",
                        stats.total_instructions(),
                        stats.loads,
                        stats.fills,
                        stats.total_mmos(),
                        stats.stores
                    );
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("asm: execution fault: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        _ => usage(),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("ops") => cmd_ops(),
        Some("solve") => cmd_solve(&args[1..]),
        Some("micro") => cmd_micro(&args[1..]),
        Some("asm") => cmd_asm(&args[1..]),
        _ => usage(),
    }
}
