#!/usr/bin/env bash
# Tier-1 verification: format, build, test, lint. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --check
cargo build --release
cargo test -q
cargo clippy --all-targets -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps

# Optional: throughput-bench smoke (adds a few seconds). Enable with
#   SIMD2_BENCH_SMOKE=1 scripts/verify.sh
if [ "${SIMD2_BENCH_SMOKE:-0}" = "1" ]; then
  scripts/bench.sh
fi

# Optional: a short seeded slice of the randomized soak harness — checks
# parallel/sequential bit identity, exact op accounting, telemetry
# lock-step, and detection-or-benign under fault injection and worker
# panics. Enable with
#   SIMD2_SOAK_SMOKE=1 scripts/verify.sh
if [ "${SIMD2_SOAK_SMOKE:-0}" = "1" ]; then
  cargo run --release -q -p simd2-bench --bin soak -- --seconds 5 --seed 2022
fi

# Optional: focused observability-layer checks — the simd2-trace unit
# suite, the golden telemetry snapshot, and the NullSink zero-allocation
# guard. Enable with
#   SIMD2_TRACE_SMOKE=1 scripts/verify.sh
if [ "${SIMD2_TRACE_SMOKE:-0}" = "1" ]; then
  cargo test -q -p simd2-trace
  cargo test -q --test telemetry_snapshot --test telemetry_overhead
fi

# Optional: plan-IR smoke — records every Figure-11 app as a plan and
# replays it on the tiled (sequential + batched), reference, and ISA
# backends, cross-checking outputs and work counters. Enable with
#   SIMD2_PLAN_SMOKE=1 scripts/verify.sh
if [ "${SIMD2_PLAN_SMOKE:-0}" = "1" ]; then
  cargo run --release -q -p simd2-bench --bin plan_smoke
fi

# Optional: SIMD kernel-dispatch smoke — runs the kernel bit-identity
# suites (semiring dispatch/lowering tests, mxu unit tests, and the
# SIMD==scalar proptests), the packed-engine-vs-per-tile-schedule suite,
# and the benchmark package's own tests (which pin the public per-tile
# API, the benchmark's panel loop and TiledBackend::mmo to each other,
# and fail here if a public-API change would stop the benchmark
# building) twice: once on the host's detected vector tier, once with
# SIMD2_FORCE_SCALAR=1 pinning the portable kernel, so both dispatch
# legs stay green on every host. Enable with
#   SIMD2_SIMD_SMOKE=1 scripts/verify.sh
if [ "${SIMD2_SIMD_SMOKE:-0}" = "1" ]; then
  for leg in 0 1; do
    SIMD2_FORCE_SCALAR=$leg cargo test -q -p simd2-semiring -p simd2-mxu
    SIMD2_FORCE_SCALAR=$leg cargo test -q -p simd2 --test proptest_packed
    SIMD2_FORCE_SCALAR=$leg CARGO_TARGET_DIR=target/benchmark \
      cargo test --release --offline -q --manifest-path benchmark/Cargo.toml
  done
fi

# Optional: serving-layer smoke — a short seeded slice of the
# multi-tenant serve soak: admission mirroring, WRR scheduling order,
# deadline expiry accounting, cache-hit bit identity, panic/fault
# isolation, and telemetry-vs-scheduler lock-step. Enable with
#   SIMD2_SERVE_SMOKE=1 scripts/verify.sh
if [ "${SIMD2_SERVE_SMOKE:-0}" = "1" ]; then
  cargo run --release -q -p simd2-bench --bin serve_soak -- --seconds 5 --seed 2022
fi

# Optional: resilience smoke — checkpoint/resume bit-identity at every
# wave boundary (proptest), then a short seeded serve-soak slice whose
# chaos modes exercise suspend/resume accounting, circuit-breaker
# determinism, plan quarantine, and the degradation ladder — run on
# both kernel-dispatch legs (the host's detected vector tier and
# SIMD2_FORCE_SCALAR=1). Enable with
#   SIMD2_RESILIENCE_SMOKE=1 scripts/verify.sh
if [ "${SIMD2_RESILIENCE_SMOKE:-0}" = "1" ]; then
  cargo test -q -p simd2 --test proptest_checkpoint
  cargo run --release -q -p simd2-bench --bin serve_soak -- --seconds 4 --seed 7
  SIMD2_FORCE_SCALAR=1 cargo run --release -q -p simd2-bench --bin serve_soak -- --seconds 4 --seed 7
fi

# Optional: sparse-execution smoke — the sparse crate's suites (unit
# tests plus `proptest_rows`: every walk × both row kernels against the
# reference), the sparse-vs-dense replay + wave-boundary resume
# proptests, the benchmark package's own tests (they fail here if a
# public-API change would stop the `sparse-mmo` workload building), and
# the deterministic sparse serve-soak episode (streaming-update apps
# with CSR-declared deltas served over the sharded sparse backend) —
# run on both kernel-dispatch legs (the host's detected vector tier and
# SIMD2_FORCE_SCALAR=1, which puts the row sweep on its scalar leaf).
# Enable with
#   SIMD2_SPARSE_SMOKE=1 scripts/verify.sh
if [ "${SIMD2_SPARSE_SMOKE:-0}" = "1" ]; then
  for leg in 0 1; do
    SIMD2_FORCE_SCALAR=$leg cargo test -q -p simd2-sparse
    SIMD2_FORCE_SCALAR=$leg cargo test -q --test proptest_stack sparse_
    SIMD2_FORCE_SCALAR=$leg CARGO_TARGET_DIR=target/benchmark \
      cargo test --release --offline -q --manifest-path benchmark/Cargo.toml
    SIMD2_FORCE_SCALAR=$leg cargo run --release -q -p simd2-bench --bin serve_soak -- --sparse --seed 7
  done
fi

# Optional: pass-pipeline smoke — the pass-equivalence proptests (every
# pass and the full pipeline preserve replay bit-identity, checkpoints
# resume through optimized plans), the adversarial pass unit tests, and
# the eight-app differential with its snapshot-pinned optimization
# table — run on both kernel-dispatch legs (the host's detected vector
# tier and SIMD2_FORCE_SCALAR=1). Enable with
#   SIMD2_PASS_PIPELINE_SMOKE=1 scripts/verify.sh
if [ "${SIMD2_PASS_PIPELINE_SMOKE:-0}" = "1" ]; then
  cargo test -q -p simd2 --test proptest_passes --test passes_adversarial
  cargo test -q --test passes_differential
  SIMD2_FORCE_SCALAR=1 cargo test -q -p simd2 --test proptest_passes --test passes_adversarial
  SIMD2_FORCE_SCALAR=1 cargo test -q --test passes_differential
fi
