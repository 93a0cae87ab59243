#!/usr/bin/env bash
# Regenerates every table/figure in results/: the text tables (stdout of
# each harness) and the structured JSON reports (written by the harnesses
# to results/json/ as a side effect).
#
# Usage: scripts/regen_results.sh [binary...]
#   With no arguments, runs all 21 harnesses. With arguments, runs only
#   the named ones (e.g. `scripts/regen_results.sh table2 figure3`).
#   fault_degradation, chaos_soak and recovery_headline commit their
#   reports only; their stdout is not kept.
#
#        scripts/regen_results.sh --check [binary...]
#   Regenerates nothing: runs the same harnesses into a temporary results
#   directory and fails unless every stdout equals the committed
#   results/<bin>.txt and every report equals results/json/<bin>.json,
#   byte for byte (`cmp`, no keys excepted: a report holds nothing that
#   varies from run to run). The byte-identity gate for refactors of the
#   harness or the simulator.
#
# Both modes print each harness's wall-clock seconds and the total; the
# committed files hold no timings.
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
  fault_degradation chaos_soak recovery_headline
)
REPORT_ONLY=" fault_degradation chaos_soak recovery_headline "

CHECK=0
if [[ "${1:-}" == "--check" ]]; then
  CHECK=1
  shift
fi

BINARIES=("${@:-${ALL_BINARIES[@]}}")

for bin in "${BINARIES[@]}"; do
  if [[ ! " ${ALL_BINARIES[*]} " == *" $bin "* ]]; then
    echo "error: unknown harness '$bin' (known: ${ALL_BINARIES[*]})" >&2
    exit 1
  fi
done

cargo build --release -p damq-bench
# The binaries just built, wherever cargo put them.
bins="${CARGO_TARGET_DIR:-target}/release"

if [[ "$CHECK" -eq 1 ]]; then
  out="$(mktemp -d)"
  trap 'rm -rf "$out"' EXIT
else
  out=results
  mkdir -p results/json
fi

# Seconds since `$1` (an $EPOCHREALTIME reading), to the millisecond.
elapsed() {
  awk -v a="$1" -v b="$EPOCHREALTIME" 'BEGIN { printf "%7.3f", b - a }'
}

failed=0
total_start=$EPOCHREALTIME
for bin in "${BINARIES[@]}"; do
  text="$out/$bin.txt"
  [[ "$REPORT_ONLY" == *" $bin "* ]] && text=/dev/null
  start=$EPOCHREALTIME
  if [[ "$CHECK" -eq 1 ]]; then
    DAMQ_RESULTS_DIR="$out" "$bins/$bin" > "$text" 2> /dev/null
    if [[ "$text" != /dev/null ]] && ! cmp "results/$bin.txt" "$text"; then
      failed=1
    fi
    cmp "results/json/$bin.json" "$out/json/$bin.json" || failed=1
  else
    "$bins/$bin" > "$text"
  fi
  echo "$(elapsed "$start") s  $bin"
done
echo "$(elapsed "$total_start") s  total (${#BINARIES[@]} harnesses)"

if [[ "$CHECK" -eq 1 ]]; then
  if [[ "$failed" -ne 0 ]]; then
    echo "results-check: regenerated results differ from the committed ones" >&2
    exit 1
  fi
  echo "results-check: ${#BINARIES[@]} harnesses match the committed results"
else
  echo "done: ${#BINARIES[@]} harnesses -> results/*.txt + results/json/*.json"
fi
