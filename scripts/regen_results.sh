#!/usr/bin/env bash
# Regenerates every table/figure in results/: the text tables (stdout of
# each harness) and the structured JSON reports (written by the harnesses
# to results/json/ as a side effect).
#
# Usage: scripts/regen_results.sh [binary...]
#   With no arguments, runs all 18 harnesses. With arguments, runs only
#   the named ones (e.g. `scripts/regen_results.sh table2 figure3`).
#
#        scripts/regen_results.sh --check [binary...]
#   Regenerates nothing: runs the 18 harnesses plus fault_degradation and
#   chaos_soak (or only the named ones) into a temporary results
#   directory and fails unless every stdout equals the committed
#   results/<bin>.txt byte for byte and every report equals
#   results/json/<bin>.json outside its run-varying `run` and `telemetry`
#   keys (`cargo xtask results-diff`). The byte-identity gate for
#   refactors of the harness or the simulator (~30 s on 2 CPUs for all of
#   them). recovery_headline stays out: a full run rewrites its section
#   of the committed BENCH_throughput.json, so a check would edit the
#   tree it checks.
#
# Offline by design: needs only the Rust toolchain already in the tree.
# DAMQ_SWEEP_THREADS caps the sweep engine's worker threads if set.
set -euo pipefail
cd "$(dirname "$0")/.."

ALL_BINARIES=(
  table1 table2 table3 table4 table5 table6 figure3
  markov_4x4 markov_queueing
  tree_saturation burstiness fairness seed_stability
  variable_length dual_network topology_comparison
  ablation_arbitration ablation_dafc
)

CHECK=0
if [[ "${1:-}" == "--check" ]]; then
  CHECK=1
  shift
  # fault_degradation and chaos_soak commit their reports only, so only
  # --check knows them.
  ALL_BINARIES+=(fault_degradation chaos_soak)
fi

BINARIES=("${@:-${ALL_BINARIES[@]}}")

for bin in "${BINARIES[@]}"; do
  if [[ ! " ${ALL_BINARIES[*]} " == *" $bin "* ]]; then
    echo "error: unknown harness '$bin' (known: ${ALL_BINARIES[*]})" >&2
    exit 1
  fi
done

cargo build --release -p damq-bench

if [[ "$CHECK" -eq 1 ]]; then
  tmp="$(mktemp -d)"
  trap 'rm -rf "$tmp"' EXIT
  failed=0
  for bin in "${BINARIES[@]}"; do
    DAMQ_RESULTS_DIR="$tmp" ./target/release/"$bin" > "$tmp/$bin.txt" 2> /dev/null
    if [[ -e "results/$bin.txt" ]] && ! cmp "results/$bin.txt" "$tmp/$bin.txt"; then
      failed=1
    fi
    cargo xtask results-diff "results/json/$bin.json" "$tmp/json/$bin.json" || failed=1
  done
  if [[ "$failed" -ne 0 ]]; then
    echo "results-check: regenerated results differ from the committed ones" >&2
    exit 1
  fi
  echo "results-check: ${#BINARIES[@]} harnesses match the committed results"
  exit 0
fi

mkdir -p results/json
for bin in "${BINARIES[@]}"; do
  echo "== $bin =="
  ./target/release/"$bin" > "results/$bin.txt"
done

echo "done: ${#BINARIES[@]} harnesses -> results/*.txt + results/json/*.json"
