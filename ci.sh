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

echo "==> Expression-graph proptests under PASTA_TRACE=1 (tracing must not perturb lowering)"
PASTA_TRACE=1 cargo test -q -p pasta --test expr_props

echo "==> Conformance matrix (quick tier + selftest)"
cargo run --release -q -p pasta-conformance -- quick
cargo run --release -q -p pasta-conformance -- selftest

echo "==> Conformance quick under PASTA_TRACE=1 (tracing must not perturb numerics)"
PASTA_TRACE=1 cargo run --release -q -p pasta-conformance -- quick

echo "==> Repo benchmark smoke (scale 0.02, every output and served response verified)"
bash benchmark/run.sh --smoke > /dev/null

echo "==> Repo benchmark harness unit tests"
bash benchmark/run.sh --test

echo "==> Paper artifacts regenerate byte for byte"
bash results/regen.sh
git diff --exit-code -- results/

echo "==> CI gate passed"
