#!/usr/bin/env bash
# Tier-1 verification: format, build, test, lint. Run from the repo root.
#
#   scripts/verify.sh          Tier-1
#   scripts/verify.sh --full   Tier-1, then everything Tier-1 does not run
set -euo pipefail
cd "$(dirname "$0")/.."

case "$*" in
  "") full=0 ;;
  --full) full=1 ;;
  *) echo "usage: scripts/verify.sh [--full]" >&2; exit 2 ;;
esac

cargo fmt --check
cargo build --release
cargo test -q
# `unreachable_pub` keeps every `pub` item reachable from its crate's
# root: what only the crate uses is `pub(crate)`.
cargo clippy --all-targets -- -D warnings -D unreachable_pub
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps
# `benchmark/` is a workspace of its own that no engine PR may edit: a
# moved or renamed type that strands it must fail here, not in the
# benchmark pipeline.
CARGO_TARGET_DIR=target/benchmark \
  cargo check --offline --manifest-path benchmark/Cargo.toml

[ "$full" -eq 1 ] || exit 0

# Tier-1 ran every test on the host's detected vector tier; run them all
# again with the portable scalar kernel pinned, so both dispatch legs
# stay green on every host.
SIMD2_FORCE_SCALAR=1 cargo test -q

# The cross-backend fold-order differential and the engine's own walk
# differentials (every row kernel forced, in `backend::rows`; every
# walk the engine measures operands for against the reference and the
# forced tile chain, in `proptest_rows`) once more optimised, on both
# legs: `f32::max` does
# not order `±0`, and the places
# where that showed (a `max` against a constant the optimiser may
# commute) only ever disagreed in release builds. With them the ABFT
# verifier against its element-at-a-time definition: its sums are only
# the definition's bit for bit while the optimiser keeps their order,
# and on the vector leg its operand copies come from the vector
# quantiser. And the suites that drive the engine's worker pool (the
# whole `backend::` unit suite, the parallel and checkpoint
# differentials, the pool's thread lifecycle): a hand-off race shows
# at optimised speed, where a debug build's slower panels may hide it.
# And the tile chain's skips: the scan leaf against its scalar oracle
# and chains folded in runs against the one-call fold on every tier
# (`proptest_simd`), the block-sparse differential in `fold_order`, and
# the skipped-pair count of the two DAG apps (`chain_skips`) — on the
# forced-scalar leg the engine's facts come from the scalar leaf. And the
# row walks' CSR images: the compaction leaf against its scalar oracle
# (`proptest_simd`) and the steps the engine walks undeclared — the
# streaming apps' pinned term for term, the seven closure apps' step by
# step — bit for bit against the forced chain and the reference
# (`streaming_walks`).
# On the forced-scalar leg every CSR image is built through the scalar compaction leaf.
# And min-max / max-min on the chain's fp16 lanes: the leaf against the
# fold written out (`proptest_simd`), the engine against the reference
# and the scalar-pinned unit with every fallback counter pinned
# (`half_lanes`) — the forced-scalar leg folds every pair on `f32` lanes.
# Which lanes the vector leg had is printed once, first: a green log from
# a host without AVX512-FP16 does not cover the fp16 leaf.
# And plus-mul on the chain's FMA lanes: the fused leaf against the fold
# written out (`proptest_simd`), the engine against the reference and the
# scalar-pinned unit with every lane counter pinned (`fma_lanes`, which
# prints how many pairs took each route) — on the forced-scalar leg no
# pair may fuse, and the test fails if one does.
# Which pairs take which lanes, and which counter counts them, is one
# table (`route` in `backend/chain.rs`); its test,
# `backend::chain::tests::the_lane_table_routes_every_pair_once`, runs in
# the `--lib backend::` line below, on every op, fit and tier with or
# without lanes. A log from a host without AVX512-FP16 covers fp16
# routing through that table test only, not through the leaf.
# Beside it in the same line runs the pack test,
# `backend::chain::tests::one_pass_writes_what_the_leaves_read`: the one
# pass that packs each tile, its scan, its fit and (on fp16 lanes) its
# image against the separate leaves run over the packed buffer, for `A`
# chains and `B` strips, every op, fp16 / fp32 / int8 — on the
# forced-scalar leg with no lanes, so every fit reads `Exact`.
# And or-and on bit rows: the three bit-row leaves against the rule
# written out (`proptest_simd`), every or-and step's bit walk against the
# reference and the forced tile chain at fp16 / fp32 / int8 and one and
# two workers (`or_and_bits`, which prints the tier whose bit leaves ran:
# `Scalar` on the forced-scalar leg).
cargo test --release -q -p simd2 --test half_lanes -- --nocapture host_features
for leg in 0 1; do
  SIMD2_FORCE_SCALAR=$leg cargo test --release -q -p simd2-repro --test fold_order
  SIMD2_FORCE_SCALAR=$leg cargo test --release -q -p simd2-semiring --test proptest_simd
  SIMD2_FORCE_SCALAR=$leg cargo test --release -q -p simd2-apps --test chain_skips --test streaming_walks
  SIMD2_FORCE_SCALAR=$leg cargo test --release -q -p simd2 --test half_lanes
  SIMD2_FORCE_SCALAR=$leg cargo test --release -q -p simd2 --test fma_lanes -- --nocapture
  SIMD2_FORCE_SCALAR=$leg cargo test --release -q -p simd2 --test or_and_bits -- --nocapture
  SIMD2_FORCE_SCALAR=$leg cargo test --release -q -p simd2 --lib backend::
  SIMD2_FORCE_SCALAR=$leg cargo test --release -q -p simd2 --test proptest_rows \
    --test proptest_parallel --test proptest_checkpoint --test pool_lifecycle
  SIMD2_FORCE_SCALAR=$leg cargo test --release -q -p simd2-fault --test proptest_abft
done

# Where this host's walk-or-chain and scatter-or-sweep bounds would fall
# (`backend::rows`' private constants were placed by these sweeps on the
# host EXPERIMENTS.md names): informational, not compared.
for sweep in walk_or_chain scatter_or_sweep; do
  cargo test --release -q -p simd2 --lib -- --ignored --nocapture "$sweep" \
    > "target/$sweep.txt"
done

# The vector fp16 quantiser against the scalar round trip on all 2^32
# `f32` bit patterns (the default run samples them).
cargo test --release -q -p simd2-semiring --test proptest_simd -- --ignored every_bit_pattern

# The benchmark package's own tests, on both legs: they pin the public
# per-tile API, the benchmark's panel loop and the two engines to each
# other, and fail here if a public-API change would stop a workload
# building.
for leg in 0 1; do
  SIMD2_FORCE_SCALAR=$leg CARGO_TARGET_DIR=target/benchmark \
    cargo test --release --offline -q --manifest-path benchmark/Cargo.toml
done

# The examples are a user-facing surface Tier-1 only compiles: run each
# once, optimised; a non-zero exit fails the gate.
for example in examples/*.rs; do
  name=$(basename "$example" .rs)
  cargo run --release -q --example "$name" > "target/example.$name.txt"
done

# Seeded slices of the randomized soaks. `soak`: parallel/sequential bit
# identity, exact op accounting, telemetry lock-step, and
# detection-or-benign under fault injection and worker panics.
# `serve_soak`: every episode draws its fault class, resume, breaker and
# ladder policies, and one reference model must predict every admission
# answer, outcome, counter, ledger, breaker and ladder state; a run that
# never reaches some lifecycle stage (expiry, failure, cache hit,
# recovery, suspend/resume, breaker trip and short-circuit, quarantine,
# both ladder rungs — the scalar pin on vector hosts only) fails. Its
# episode count is fixed (`--iters`, with `--seconds` only as a runaway
# cap), so what a slice covers does not depend on host speed; two seeds
# on both legs. The deterministic sparse-serving episode runs on both
# legs too (the scalar leg puts the row sweep on its scalar leaf). That
# episode's report line — jobs, suspensions, row-walked steps, skipped
# terms — is a pure function of the seed: the scalar leg's is the
# committed one, and the vector leg's may differ from it in the `isa=`
# field only.
run=(cargo run --release -q -p simd2-bench --bin)
"${run[@]}" soak -- --seconds 5 --seed 2022
for leg in 0 1; do
  for seed in 7 2022; do
    SIMD2_FORCE_SCALAR=$leg "${run[@]}" serve_soak -- --iters 2000 --seconds 600 --seed $seed
  done
  SIMD2_FORCE_SCALAR=$leg "${run[@]}" serve_soak -- --sparse --seed 7 \
    | tee "target/serve_soak_sparse.leg$leg.txt"
  sed 's/ isa=[A-Za-z0-9]* / isa=Scalar /' "target/serve_soak_sparse.leg$leg.txt" \
    | cmp - results/serve_soak_sparse.txt
done
cmp target/serve_soak_sparse.leg1.txt results/serve_soak_sparse.txt

# The fault campaign is a pure function of its arguments: every strike,
# detection, retry and fallback of the seeded sweep is in its report and
# in the event stream it writes. The two legs must print the same report,
# and the stream must be the committed one — the scalar leg's, which is
# why that leg runs last (the vector leg's differs in the `isa` field
# of its `mmo` spans and in nothing else).
for leg in 0 1; do
  SIMD2_FORCE_SCALAR=$leg "${run[@]}" fault_campaign > "target/fault_campaign.leg$leg.txt"
done
cmp target/fault_campaign.leg0.txt target/fault_campaign.leg1.txt
git diff --exit-code results/telemetry/fault_campaign.jsonl
