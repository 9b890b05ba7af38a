//! The repo benchmark: one workload per process, timed from outside the
//! engine through public functions only.
//!
//! ```text
//! simd2-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! simd2-benchmark --compare <set-a.jsonl> <set-b.jsonl>
//! simd2-benchmark --spread <results.jsonl>
//! simd2-benchmark --list-metrics
//! ```
//!
//! The first form runs a workload and prints an environment header, a
//! metric table and, as the last line of standard output, the result
//! object of the benchmark contract: every end-to-end metric with
//! `--trace 0`, every per-layer metric with `--trace 1`. The other two
//! read files of such result lines (one line per run, prefixed by the
//! workload name and a tab) for `run.sh --selfcheck` and for noise
//! calibration; the last prints the registry as the `end_to_end` and
//! `per_layer` arrays of `BENCHMARK.json`. See `benchmark/README.md`.

#![warn(missing_docs)]

mod clock_sink;
mod common;
mod jobstream;
mod json;
mod layers;
mod metrics;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::process::ExitCode;

use common::{Args, Env};
use json::Json;
use metrics::{Better, MetricDef, Report, WORKLOADS};

fn usage() -> ExitCode {
    eprintln!(
        "usage: simd2-benchmark --workload <{}> [--seed N] [--seconds S] [--trace 0|1]\n\
         \x20      simd2-benchmark --compare SET_A SET_B\n\
         \x20      simd2-benchmark --spread RESULTS\n\
         \x20      simd2-benchmark --list-metrics",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn parse_run_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 2022,
        seconds: 20.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => args.workload = value.to_owned(),
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(format!("--seconds {value} outside (0, 600]"));
                }
            }
            "--trace" => {
                args.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload `{}`", args.workload));
    }
    Ok(args)
}

fn print_header(args: &Args, env: &Env) {
    let from_env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".to_owned());
    println!("# simd2-benchmark: {}", args.workload);
    println!(
        "# host: nproc={} T={} kernel_isa={}",
        env.nproc, env.threads, env.isa
    );
    println!(
        "# build: rustc=\"{}\" commit={}",
        from_env("SIMD2_BENCH_RUSTC"),
        from_env("SIMD2_BENCH_COMMIT")
    );
    println!(
        "# run: seed={} seconds={} trace={}",
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
}

fn print_table(report: &Report, defs: &[MetricDef]) {
    let mut unmeasured = 0;
    for d in defs {
        match report.get(&d.name) {
            Some(v) => println!("{:<44} {:>16.6} {}", d.name, v, d.unit),
            None => unmeasured += 1,
        }
    }
    if unmeasured > 0 {
        println!("# {unmeasured} metrics of other layers not measured by this workload (0 in the result line)");
    }
}

fn run_workload(args: &Args) -> ExitCode {
    let env = Env::detect();
    print_header(args, &env);
    let mut report = match args.workload.as_str() {
        "dense-mmo" => workloads::dense::run(args, &env),
        "sparse-mmo" => workloads::sparse::run(args, &env),
        "apps-closure" => workloads::apps::run(args, &env),
        "serve-mix" => workloads::serve::run(args, &env),
        other => unreachable!("workload {other} was validated"),
    };
    let defs = if args.trace {
        metrics::per_layer()
    } else {
        report.set("peak_rss_mb", common::peak_rss_mb().unwrap_or(f64::NAN));
        metrics::end_to_end()
    };
    for note in &report.notes {
        println!("# {note}");
    }
    println!(
        "# operations: attempted={} failed={} fail_frac={}",
        report.attempted,
        report.failed,
        report.failed as f64 / report.attempted.max(1) as f64
    );
    print_table(&report, &defs);
    let unknown = report.unknown(&[metrics::end_to_end(), metrics::per_layer()].concat());
    if !unknown.is_empty() {
        eprintln!("error: metrics outside the registry: {unknown:?}");
        return ExitCode::FAILURE;
    }
    match report.result_line(&defs, !args.trace) {
        Ok(line) => {
            println!("{line}");
            if report.failed == 0 {
                ExitCode::SUCCESS
            } else {
                eprintln!("error: {} operations failed", report.failed);
                ExitCode::FAILURE
            }
        }
        Err(problems) => {
            for p in problems {
                eprintln!("error: {p}");
            }
            ExitCode::FAILURE
        }
    }
}

/// `workload → metric → values`, one value per result line of `path`
/// (`<workload>\t<result object>` per line).
fn read_results(path: &str) -> Result<BTreeMap<String, BTreeMap<String, Vec<f64>>>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut out: BTreeMap<String, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let (workload, object) = line
            .split_once('\t')
            .ok_or_else(|| format!("{path}:{}: expected `<workload>\\t<json>`", i + 1))?;
        let doc = Json::parse(object).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        let Some(Json::Obj(metrics)) = doc.get("metrics") else {
            return Err(format!("{path}:{}: no metrics object", i + 1));
        };
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(Json::num)
                .ok_or_else(|| format!("{path}:{}: {name} has no value", i + 1))?;
            out.entry(workload.to_owned())
                .or_default()
                .entry(name.clone())
                .or_default()
                .push(value);
        }
    }
    Ok(out)
}

/// `--compare`: fails when any end-to-end metric of set B is worse than
/// set A's by more than its bound.
fn compare(a: &str, b: &str) -> Result<bool, String> {
    let (a, b) = (read_results(a)?, read_results(b)?);
    let mut ok = true;
    println!(
        "{:<14} {:<14} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "set A", "set B", "worse by", "bound"
    );
    for (workload, metrics_a) in &a {
        for d in metrics::end_to_end() {
            let bound = d.bound.expect("end-to-end metrics carry a bound");
            let (Some(va), Some(vb)) = (
                metrics_a.get(&d.name),
                b.get(workload).and_then(|w| w.get(&d.name)),
            ) else {
                return Err(format!("{workload}/{} missing from a set", d.name));
            };
            let (va, vb) = (stats::median(va), stats::median(vb));
            let worse = match d.better {
                Better::Higher => (va - vb) / va,
                Better::Lower => (vb - va) / va,
            };
            let verdict = if worse > bound { "FAIL" } else { "" };
            ok &= worse <= bound;
            println!(
                "{workload:<14} {:<14} {va:>14.6} {vb:>14.6} {:>8.2}% {:>6.0}% {verdict}",
                d.name,
                worse * 100.0,
                bound * 100.0
            );
        }
    }
    Ok(ok)
}

/// `--spread`: per workload and metric, the median over the runs in the
/// file and the interquartile distance as a share of it.
fn spread(path: &str) -> Result<(), String> {
    println!(
        "{:<14} {:<44} {:>5} {:>16} {:>9}",
        "workload", "metric", "runs", "median", "iqr/med"
    );
    for (workload, metrics) in read_results(path)? {
        for (name, values) in metrics {
            let med = stats::median(&values);
            if values.len() < 2 || med == 0.0 {
                println!(
                    "{workload:<14} {name:<44} {:>5} {med:>16.6} {:>9}",
                    values.len(),
                    "-"
                );
            } else {
                println!(
                    "{workload:<14} {name:<44} {:>5} {med:>16.6} {:>8.2}%",
                    values.len(),
                    stats::iqr_over_median(&values) * 100.0
                );
            }
        }
    }
    Ok(())
}

/// `--list-metrics`: the registry in `BENCHMARK.json` form.
fn list_metrics() {
    let render = |defs: Vec<MetricDef>| -> String {
        let rows: Vec<String> = defs
            .iter()
            .map(|d| {
                let bound = d
                    .bound
                    .map_or(String::new(), |b| format!(", \"bound\": {b}"));
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"{bound}}}",
                    d.name,
                    d.unit,
                    d.better.label()
                )
            })
            .collect();
        rows.join(",\n")
    };
    println!(
        "  \"end_to_end\": [\n{}\n  ],",
        render(metrics::end_to_end())
    );
    println!("  \"per_layer\": [\n{}\n  ]", render(metrics::per_layer()));
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("--compare") if argv.len() == 3 => compare(&argv[1], &argv[2]),
        Some("--spread") if argv.len() == 2 => spread(&argv[1]).map(|()| true),
        Some("--list-metrics") if argv.len() == 1 => {
            list_metrics();
            return ExitCode::SUCCESS;
        }
        Some("--compare" | "--spread" | "--list-metrics") | None => return usage(),
        Some(_) => match parse_run_args(&argv) {
            Ok(args) => return run_workload(&args),
            Err(e) => {
                eprintln!("error: {e}");
                return usage();
            }
        },
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
