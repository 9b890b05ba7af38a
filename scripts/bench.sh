#!/usr/bin/env bash
# Throughput-bench smoke: runs the engine throughput harness in --quick
# mode and checks that BENCH_throughput.json has the expected schema.
# Run from the repo root. A full (minutes-scale) sweep is:
#   cargo run --release -p simd2-bench --bin throughput
set -euo pipefail
cd "$(dirname "$0")/.."

cargo run --release -q -p simd2-bench --bin throughput -- --quick

out=BENCH_throughput.json
[ -s "$out" ] || { echo "FAIL: $out missing or empty" >&2; exit 1; }

# Schema check without assuming jq/python: every key the downstream
# EXPERIMENTS.md table reads must be present.
for key in '"bench": "throughput"' '"quick"' '"nproc"' '"tile"' '"entries"' \
           '"op"' '"n"' '"threads"' '"overhead_only"' '"isa"' '"seconds"' \
           '"tile_mmos_per_s"' '"gbps"' '"speedup_vs_scalar"'; do
  grep -q -- "$key" "$out" || { echo "FAIL: $out lacks $key" >&2; exit 1; }
done

entries=$(grep -c '"op":' "$out")
[ "$entries" -ge 2 ] || { echo "FAIL: only $entries entries in $out" >&2; exit 1; }

echo "OK: $out schema valid ($entries entries)"
