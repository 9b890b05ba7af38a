//! Differential check of the pass pipeline over all eight Figure-11
//! applications, with a snapshot-pinned optimization table.
//!
//! Each app records its full convergence-free Bellman–Ford instruction
//! stream (the worst-case iteration count, so closure apps carry the
//! redundant post-fixed-point tail the CSE pass exists for), then:
//!
//! * replaying the *optimized* plan must reproduce every step of the
//!   unoptimized replay bit for bit through the [`OptimizedPlan`]
//!   remap (outputs and exact work counters) — running an app with the
//!   pipeline on converges to the identical result;
//! * recording twice must optimize identically (the pipeline is a pure
//!   function of the plan);
//! * the per-app steps-before/after, merged and eliminated counts are
//!   pinned in `tests/snapshots/passes.snap`. When a pass changes
//!   *intentionally*, regenerate with:
//!
//! ```text
//! SIMD2_BLESS=1 cargo test --test passes_differential
//! ```
//!
//! and review the table diff like any other code change.

use std::path::PathBuf;

use simd2_repro::apps::{harness, AppKind};
use simd2_repro::core::backend::{Backend, TiledBackend};
use simd2_repro::core::solve::ClosureAlgorithm;
use simd2_repro::core::{PassPipeline, PlanExecutor};
use simd2_repro::matrix::Matrix;

const N: usize = 32;
const SEED: u64 = 2022;

fn snapshot_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/snapshots/passes.snap")
}

fn assert_bits_equal(want: &Matrix, got: &Matrix, what: &str) {
    assert_eq!(want.shape(), got.shape(), "{what}: shape");
    for (i, (x, y)) in want.as_slice().iter().zip(got.as_slice()).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: element {i}");
    }
}

/// Runs one app with the pipeline off and on, proves the differential,
/// and returns its optimization-table row.
fn check_app(app: AppKind) -> String {
    let mut rec_be = TiledBackend::new();
    let run = harness::run_app(
        &mut rec_be,
        app,
        N,
        SEED,
        ClosureAlgorithm::BellmanFord,
        false,
    );
    assert!(run.passed(), "{app:?}: diff {} out of tolerance", run.diff);

    // Pipeline off: the plain sequential replay is the reference.
    let mut base_be = TiledBackend::new();
    let base = PlanExecutor::new()
        .run(&run.plan, &mut base_be)
        .expect("unoptimized replay");

    // Pipeline on: every original step must converge to identical bits
    // through the remap, with exactly the optimized plan's work.
    let optimized = PassPipeline::standard().run(run.plan.clone());
    let mut opt_be = TiledBackend::new();
    let opt = PlanExecutor::new()
        .run_optimized(&optimized, &mut opt_be)
        .expect("optimized replay");
    assert_eq!(
        opt_be.op_count(),
        optimized.plan().predicted_op_count(),
        "{app:?}: optimized work"
    );
    for step in 0..run.plan.step_count() {
        let got = optimized
            .step_output(&opt, step)
            .unwrap_or_else(|| panic!("{app:?}: step {step} unreachable after optimization"));
        assert_bits_equal(base.step_output(step), got, &format!("{app:?} step {step}"));
    }
    assert_bits_equal(
        base.final_output().expect("non-empty plan"),
        optimized.final_output(&opt).expect("mapped final step"),
        &format!("{app:?} final"),
    );

    // Determinism: recording the same app again optimizes identically.
    let rerun = harness::run_app(
        &mut TiledBackend::new(),
        app,
        N,
        SEED,
        ClosureAlgorithm::BellmanFord,
        false,
    );
    assert_eq!(rerun.iterations, run.iterations, "{app:?}: iterations");
    let reopt = PassPipeline::standard().run(rerun.plan);
    assert_eq!(
        reopt.cache_key(),
        optimized.cache_key(),
        "{app:?}: optimization must be a pure function of the recording"
    );

    let r = optimized.report();
    format!(
        "{:<6} before={:<3} after={:<3} merged={:<3} eliminated={}\n",
        format!("{app:?}"),
        r.steps_before,
        r.steps_after,
        r.steps_merged,
        r.steps_eliminated,
    )
}

#[test]
fn eight_apps_optimize_bit_identically_with_pinned_step_counts() {
    let mut table = format!("passes over Figure-11 apps, n={N} seed={SEED} bellman-ford full\n");
    let mut total_merged = 0usize;
    for app in AppKind::all() {
        let row = check_app(app);
        table.push_str(&row);
    }
    // The convergence-free closure tails must give CSE real work in at
    // least one app — an all-zero table would mean the differential
    // tests nothing.
    for line in table.lines().skip(1) {
        let merged: usize = line
            .split("merged=")
            .nth(1)
            .and_then(|s| s.split_whitespace().next())
            .and_then(|s| s.parse().ok())
            .expect("table row carries a merged count");
        total_merged += merged;
    }
    assert!(
        total_merged > 0,
        "no app produced CSE work — the workload no longer exercises the pipeline:\n{table}"
    );

    let path = snapshot_path();
    if std::env::var_os("SIMD2_BLESS").is_some_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().unwrap()).expect("mkdir snapshots");
        std::fs::write(&path, &table).expect("write snapshot");
        eprintln!("blessed {}", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing snapshot {} ({e}); regenerate with SIMD2_BLESS=1",
            path.display()
        )
    });
    assert_eq!(
        table,
        want,
        "per-app optimization table diverged from {}; if intentional, \
         regenerate with SIMD2_BLESS=1 and review the diff",
        path.display()
    );
}
