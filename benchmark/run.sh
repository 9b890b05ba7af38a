#!/usr/bin/env bash
# The repo benchmark. Run from anywhere; works from the repo root.
#
#   benchmark/run.sh [--seed S] [--seconds N]
#       The whole suite: each workload in its own process, first with
#       tracing off (end-to-end metrics), then traced (per-layer and
#       trace.* metrics). Every metric is printed by name with its unit;
#       result lines are kept in benchmark/out/. Default seed 2022,
#       default seconds: run_seconds of BENCHMARK.json.
#   benchmark/run.sh --selfcheck [--seed S] [--seconds N]
#       Two end-to-end sets back to back; fails if any end-to-end metric
#       of the second is worse than the first by more than its bound.
#   benchmark/run.sh --workload W --seed S --seconds N --trace 0|1
#       One run (the form the benchmark contract's driver uses); the last
#       line of standard output is the result object.
#
# Exits non-zero if a build or a run fails, an operation fails its
# oracle, or a metric is missing or not finite.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target/benchmark}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
bin="$CARGO_TARGET_DIR/release/simd2-benchmark"
SIMD2_BENCH_RUSTC="$(rustc --version)"
SIMD2_BENCH_COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
export SIMD2_BENCH_RUSTC SIMD2_BENCH_COMMIT

workloads=(dense-mmo sparse-mmo apps-closure serve-mix)
seed=2022
seconds="$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)"
selfcheck=0
for arg in "$@"; do
  if [ "$arg" = "--workload" ]; then
    exec "$bin" "$@"
  fi
done
while [ $# -gt 0 ]; do
  case "$1" in
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --selfcheck) selfcheck=1; shift ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done

mkdir -p benchmark/out

# run_set <trace> <file>: every workload once; result lines, prefixed by
# the workload name and a tab, go to <file>.
run_set() {
  : > "$2"
  for w in "${workloads[@]}"; do
    "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$1" \
      | tee benchmark/out/last-run.txt | sed '$d'
    printf '%s\t%s\n' "$w" "$(tail -n 1 benchmark/out/last-run.txt)" >> "$2"
    echo
  done
}

if [ "$selfcheck" = 1 ]; then
  run_set 0 benchmark/out/selfcheck-a.jsonl
  run_set 0 benchmark/out/selfcheck-b.jsonl
  exec "$bin" --compare benchmark/out/selfcheck-a.jsonl benchmark/out/selfcheck-b.jsonl
fi

run_set 0 "benchmark/out/end-to-end-seed$seed.jsonl"
run_set 1 "benchmark/out/per-layer-seed$seed.jsonl"
echo "result lines: benchmark/out/end-to-end-seed$seed.jsonl benchmark/out/per-layer-seed$seed.jsonl"
