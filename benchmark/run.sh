#!/usr/bin/env bash
# Builds the benchmark from source and runs it.
#
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   benchmark/run.sh [--seed <n>] [--trace <0|1>] [--smoke]     every workload in turn
#   benchmark/run.sh compare <set-a.json> <set-b.json>
#
# The last line of standard output is the run's result as one JSON object;
# the table of metrics goes to standard error. Exits non-zero if the build
# fails, an output check fails, or a measured metric and BENCHMARK.json
# disagree.
set -euo pipefail
cd "$(dirname "$0")/.."
target="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2
exec "$target/release/damq-benchmark" "$@"
