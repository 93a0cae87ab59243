#!/usr/bin/env bash
# A/A: two sets of runs of the same build must agree within the benchmark's
# own bounds. Each set is what the acceptance rule takes: every workload,
# ten seeds, one process per run. Writes the pair to benchmark/baseline/
# and fails unless `compare` calls every (workload, metric) row `ok`.
#
#   benchmark/aa.sh [seeds]        default 10; about 15 minutes per set
set -euo pipefail
cd "$(dirname "$0")/.."
seeds="${1:-10}"
target="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2
bin="$target/release/damq-benchmark"
seconds="$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)"

collect() {
    local out="$1" sep=""
    {
        printf '{"host_cpus": %s, "run_seconds": %s, "runs": [\n' "$(nproc)" "$seconds"
        for workload in $("$bin" list); do
            for seed in $(seq 1 "$seeds"); do
                result="$("$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 2>/dev/null | tail -n 1)"
                printf '%s{"workload": "%s", "seed": %s, "result": %s}' "$sep" "$workload" "$seed" "$result"
                sep=$',\n'
            done
        done
        printf '\n]}\n'
    } > "$out"
}

mkdir -p benchmark/baseline
collect benchmark/baseline/run-a.json
collect benchmark/baseline/run-b.json
"$bin" compare benchmark/baseline/run-a.json benchmark/baseline/run-b.json
