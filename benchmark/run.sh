#!/usr/bin/env bash
# The repo benchmark's one command: build release, run, verify, print.
#
#   benchmark/run.sh                      every workload, end-to-end metrics
#   benchmark/run.sh --traced             ... and a traced run for the per-layer metrics
#   benchmark/run.sh --workload W --seed N
#   benchmark/run.sh --smoke              scale 0.02, fewest rounds, still verifies (< 20 s)
#   benchmark/run.sh --agree              two untraced sets, spread beside bound, writes results/
#   benchmark/run.sh --manifest           prints BENCHMARK.json from the metric registry
#   benchmark/run.sh --test               the harness's own unit tests
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                         what BENCHMARK.json's command runs: one result line last
#
# Run it from the repo root. See benchmark/README.md for what is measured.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

# The benchmark may only call entry points that survive ROADMAP items 3 and
# 6: nothing from pasta-bench, the canned fused plans, ttm_chain, the fused
# registry, the Gpu* structs or the tuning tables, and no PASTA_* variable.
if grep -nE 'pasta[_-]bench\b|kernels::fused|Fused(AlsSweep|TtmChainPlan|TtvPlan)|ttm_chain\(|algos::\{?[^}]*ttm_chain|fused_registry|\bGpu[A-Z][A-Za-z]+|TuneTable|load_tuning|tune_tensor|TUNE_[A-Za-z*]*\.json|env::var(_os)?\("PASTA_' \
    "$here"/src/*.rs "$here/Cargo.toml"; then
  echo "benchmark depends on code slated for deletion or on a PASTA_* variable (lines above)" >&2
  exit 2
fi

# glibc's malloc decides at run time, from the order in which the first large
# blocks happen to be freed, whether later multi-megabyte blocks (privatized
# MTTKRP accumulators, conversion buffers) are carved from the heap or mapped
# and page-faulted afresh on every call. On the seed that made whole runs 4x
# slower or faster on the same input. Pin the policy: one arena, blocks up to
# 32 MiB from the heap, nothing trimmed back to the kernel.
export MALLOC_ARENA_MAX=1 MALLOC_MMAP_THRESHOLD_=33554432 MALLOC_TRIM_THRESHOLD_=1073741824

target="${CARGO_TARGET_DIR:-$here/target}"
if [ "${1:-}" = "--test" ]; then
  exec cargo test --release --offline --manifest-path "$here/Cargo.toml" --target-dir "$target"
fi
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
exec "$target/release/pasta-benchmark" "$@"
