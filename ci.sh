#!/usr/bin/env bash
# Local CI gate: the same steps .github/workflows/ci.yml runs.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --workspace --release"
cargo build --workspace --release

echo "==> cargo test --workspace"
cargo test --workspace -q

echo "==> cargo test --workspace (PASTA_SIMD=scalar, forced portable microkernels)"
PASTA_SIMD=scalar cargo test --workspace -q

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --no-deps (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> MTTKRP bench smoke (strategy dispatch, untimed)"
PASTA_BENCH_SCALE=0.02 cargo bench -p pasta-bench --bench mttkrp -- --test

echo "==> Tuner smoke (--tune on s1 completes and round-trips its JSON)"
cargo run --release -q -p pasta-bench --bin hostrun -- --tune s1 0.02 2 > /dev/null

echo "==> Fused e2e smoke (CPD-ALS + Tucker ablation + graph-lowered CPD rows)"
E2E_OUT=$(cargo run --release -q -p pasta-bench --bin hostrun -- --e2e s1 0.02 2)
grep -c "TUCKER-HOOI" <<< "$E2E_OUT" > /dev/null
grep -c "CPD-GRAPH" <<< "$E2E_OUT" > /dev/null

echo "==> Expression-graph proptests under PASTA_TRACE=1 (tracing must not perturb lowering)"
PASTA_TRACE=1 cargo test -q -p pasta --test expr_props

echo "==> Traced hostrun smoke (valid chrome trace + advisory regression gate)"
cargo run --release -q -p pasta-bench --bin hostrun -- --trace \
  --check-regress results/BENCH_host.json --regress-advisory s1 0.02 2 > /dev/null
cargo run --release -q -p pasta-bench --bin hostrun -- --check-trace results/TRACE_host.json

echo "==> Serve loadgen smoke (seeded stream, warm-pass cache hits, replay round-trip)"
cargo run --release -q -p pasta-bench --bin servebench -- \
  --passes 2 --count 60 --scale 0.01 --check --write-reqs results/SERVE_ci.reqs > /dev/null
cargo run --release -q -p pasta-bench --bin servebench -- \
  --reqs results/SERVE_ci.reqs --passes 2 --scale 0.01 --check > /dev/null
cargo run --release -q -p pasta-bench --bin servebench -- \
  --passes 1 --count 40 --scale 0.01 --no-cache --check > /dev/null
rm -f results/SERVE_ci.reqs

echo "==> Conformance matrix (quick tier + selftest)"
cargo run --release -q -p pasta-conformance -- quick
cargo run --release -q -p pasta-conformance -- selftest

echo "==> Conformance quick under PASTA_TRACE=1 (tracing must not perturb numerics)"
PASTA_TRACE=1 cargo run --release -q -p pasta-conformance -- quick

echo "==> Repo benchmark smoke (scale 0.02, every output and served response verified)"
bash benchmark/run.sh --smoke > /dev/null

echo "==> Repo benchmark harness unit tests"
bash benchmark/run.sh --test

echo "==> CI gate passed"
