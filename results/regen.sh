#!/usr/bin/env bash
# Rewrites every machine-independent paper artifact in results/ from the
# pasta-bench paper binaries, with pinned arguments. The outputs depend only
# on the source tree, so two runs give byte-identical files and CI diffs
# them against the committed copies:
#
#   bash results/regen.sh && git diff --exit-code -- results/
#
# Takes about five minutes on two cores, most of it the two SIMT-simulated
# GPU figures. The host ERT sweep (`ert`) is measured, so it is not here.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
cargo build --release --offline -q -p pasta-bench
bin="${CARGO_TARGET_DIR:-$root/target}/release"
log="$(mktemp)"
trap 'rm -f "$log"' EXIT

# run <artifact> <binary> [args...]: progress on stderr is shown only on failure.
run() {
  local artifact="$1" binary="$2"
  shift 2
  echo "==> results/$artifact" >&2
  if ! "$bin/$binary" "$@" > "results/$artifact" 2> "$log"; then
    cat "$log" >&2
    exit 1
  fi
}

run table1.txt table1 s2 0.25
run table2_real.txt table2 real --generate 1
run table2_synthetic.txt table2 synthetic --generate 1
run table3.txt table3
run fig3.csv fig3
run fig4_bluesky.csv figures bluesky 1
run fig5_wingtip.csv figures wingtip 1
run fig6_dgx1p.csv figures dgx1p 1
run fig7_dgx1v.csv figures dgx1v 1
run fig6_dgx1p_simulated.csv figures dgx1p 0.05 --simulate
run fig7_dgx1v_simulated.csv figures dgx1v 0.05 --simulate
run observations.txt observations 1
