#!/usr/bin/env bash
# The repo's offline quality gate: static analysis (eleven structural
# lints + unsafe ledger + clippy + rustfmt), build, the full test suite
# (with and without per-operation invariant audits), the exhaustive 2x2
# model checker, the fault-injection smoke (self-healing harness +
# resume), the observability smoke (metrics-registry golden + disabled
# overhead), the chaos soak smoke (recovery protocols under randomized
# fault storms, minimized-reproducer loop), the benchmark smoke (every
# BENCHMARK.json workload at 1/10 size against its pinned fingerprint),
# the results check (every committed table and report regenerates byte
# for byte), and rustdoc with warnings denied
# (`#![deny(missing_docs)]` in the crates turns any missing doc into a
# hard failure here).
#
# Every gate propagates its exit code: `set -euo pipefail` aborts on the
# first failing command (including inside pipelines), and the ERR trap
# names the gate that failed so CI logs point at the culprit.
#
# Usage: scripts/check.sh                  # run every gate
#        scripts/check.sh analyze          # just the static-analysis gate
#        scripts/check.sh fault-smoke      # just the fault-injection smoke
#        scripts/check.sh obs-smoke        # just the observability smoke
#        scripts/check.sh soa-smoke        # just the SoA hot-path smoke
#        scripts/check.sh chaos-smoke      # just the chaos soak smoke
#        scripts/check.sh bench-smoke      # just the benchmark smoke
#        scripts/check.sh markov-smoke     # just the Markov-layer smoke
#        scripts/check.sh results-check    # just the committed-results check
set -Eeuo pipefail
cd "$(dirname "$0")/.."

CURRENT_GATE="startup"
trap 'echo "check.sh: FAILED in gate: $CURRENT_GATE" >&2' ERR

gate() {
    CURRENT_GATE="$1"
    echo "== $1 =="
}

# Satellite gate: the tiny fault sweep through the self-healing harness.
# Asserts (1) a forced-panic and a wedged cell are isolated, not fatal
# (the damq-bench integration test); (2) the smoke grid completes end to
# end through the real binary; (3) `--resume` on a truncated checkpoint
# replays only the missing cell and still reports every cell.
fault_smoke() {
    gate "fault-smoke: forced-panic + wedged cells stay isolated"
    cargo test -q -p damq-bench --test self_healing

    gate "fault-smoke: tiny fault sweep completes"
    local tmp
    tmp="$(mktemp -d)"
    DAMQ_RESULTS_DIR="$tmp" \
        cargo run -q -p damq-bench --bin fault_degradation -- --smoke \
        > /dev/null

    gate "fault-smoke: resume replays only the missing cell"
    local sidecar="$tmp/json/fault_degradation_smoke.cells.jsonl"
    local total
    total="$(wc -l < "$sidecar")"
    # Drop the last completed cell, as if the sweep died mid-run.
    head -n "$((total - 1))" "$sidecar" > "$sidecar.tmp"
    mv "$sidecar.tmp" "$sidecar"
    DAMQ_RESULTS_DIR="$tmp" \
        cargo run -q -p damq-bench --bin fault_degradation -- --smoke --resume \
        > /dev/null
    local report="$tmp/json/fault_degradation_smoke.json"
    grep -q "\"resumed\": $((total - 1))" "$report"
    grep -q '"cells": 1' "$report"
    grep -q '"ok": 1' "$report"
    # The assembled report still carries every cell of the grid.
    [ "$(grep -c '"buffer":' "$report")" -eq "$total" ]
    rm -rf "$tmp"
}

# Satellite gate: the observability layer. Asserts (1) the obs_report
# metrics-registry snapshot on the golden 2x2 run is byte-identical to
# the committed golden (regenerate an intentional change with
# `cargo run --release -p damq-bench --bin obs_report`); (2) the
# always-on registry really is free when disabled (the
# no_op_registry_overhead bench fails past a 25% overhead ratio).
obs_smoke() {
    gate "obs-smoke: registry snapshot matches the committed golden"
    local tmp
    tmp="$(mktemp -d)"
    cargo run -q --release -p damq-bench --bin obs_report -- \
        --out "$tmp/obs_report.json" > /dev/null
    diff -u results/json/obs_report.json "$tmp/obs_report.json"
    rm -rf "$tmp"

    gate "obs-smoke: disabled metrics registry is free"
    cargo bench -p damq-bench --bench no_op_registry_overhead
}

# Satellite gate: the SoA hot path. Asserts (1) the two storage engines
# (the ring store and the SoA slot pool) and the five designs on them
# stay equivalent to the frozen AoS twins — test code in
# crates/core/tests/reference/ — with every per-operation invariant audit
# enabled (`strict-audit`); (2) the end-to-end AoS-vs-SoA network
# fingerprints (all five designs, faulted runs included) are
# byte-identical; (3) a network forced fully idle takes the quiescence
# fast path every switch-cycle and an idle-skip-off run fingerprints
# identically (`idle_skip_correctness`); (4) the always-on registry that
# carries `net.idle_skipped` is still free when disabled; (5) the inline
# storage behind the register files and the switch scratch behaves like
# a `Vec` on both of its arms, the per-switch footprint stays inside its
# pinned `size_of` budgets (a 40-byte `Packet` whose accessors, `Debug`
# and `Display` are what they were), and radix-4 (inline) and radix-8
# (spilled) switches still reproduce the committed departure
# fingerprints; (6) the
# occupancy-aware arbitration kernel agrees with the reference walk it
# replaced (departures, `can_send` sequence, arbiter, crossbar, buffer
# and HOL state; two seeded mutations must fail), and radix-8 and
# radix-16 networks run both protocols to conservation; (7) the source
# queue's delta-coded stream agrees with the `VecDeque` it replaced
# (two seeded mutations must fail) and a saturated backlog stays inside
# its pinned eight bytes a packet.
soa_smoke() {
    gate "soa-smoke: inline storage arms + pinned layout budgets"
    cargo test -q -p damq-core --lib -- inline:: layout_ registers_spill
    cargo test -q -p damq-core --test packet_layout
    cargo test -q -p damq-switch --lib -- layout_ scratch_spills

    gate "soa-smoke: radix-4 and radix-8 departures match the committed fingerprints"
    cargo test -q -p damq-switch --test departures

    gate "soa-smoke: arbitration kernel vs the reference walk, with teeth"
    cargo test -q -p damq-switch --test kernel_reference

    gate "soa-smoke: radix-8 and radix-16 networks run to conservation"
    cargo test -q -p damq-net --test kernel_pins wide_radix

    gate "soa-smoke: source stream vs a VecDeque, with teeth, and its byte budget"
    cargo test -q -p damq-net --lib -- source::
    cargo test -q -p damq-net --test source_backlog layout_

    gate "soa-smoke: SoA pool vs AoS twins, and the twins' self-tests, under strict-audit"
    cargo test -q -p damq-core --features strict-audit --test soa_equivalence --test reference_self

    gate "soa-smoke: AoS-vs-SoA network fingerprints are byte-identical"
    cargo test -q -p damq-net --test dispatch_equivalence

    gate "soa-smoke: idle-skip on/off fingerprints agree"
    cargo test -q -p damq-net --test idle_skip idle_skip_correctness

    gate "soa-smoke: disabled metrics registry is still free"
    cargo bench -p damq-bench --bench no_op_registry_overhead
}

# Satellite gate: the chaos soak harness around the recovery protocols.
# Asserts (1) a seeded invariant mutation surfaces as a minimized,
# replayable reproducer through the crash flight recorder (the
# damq-bench integration test); (2) the CI-sized soak grid — randomized
# per-epoch fault storms against live retransmission and rerouting,
# invariants re-audited every epoch — completes clean through the real
# binary.
chaos_smoke() {
    gate "chaos-smoke: seeded mutation yields a working reproducer"
    cargo test -q -p damq-bench --test chaos_soak

    gate "chaos-smoke: tiny soak grid stays clean"
    local tmp
    tmp="$(mktemp -d)"
    DAMQ_RESULTS_DIR="$tmp" \
        cargo run -q --release -p damq-bench --bin chaos_soak -- --smoke \
        > /dev/null
    # A clean soak leaves no flight dumps behind.
    [ ! -d "$tmp/chaos_dumps" ] || [ -z "$(ls -A "$tmp/chaos_dumps")" ]
    rm -rf "$tmp"
}

# Satellite gate: the repo benchmark (BENCHMARK.json) still builds
# against the public API and still simulates the same facts. Runs every
# workload at smoke size through the stand-alone `benchmark/` package
# (~25 s including its build); the run fails if any unit's fingerprint
# differs from its `benchmark/pins.tsv` row, an audit fails, or a
# declared metric is missing.
bench_smoke() {
    gate "bench-smoke: every workload matches its pinned fingerprint"
    bash benchmark/run.sh --smoke > /dev/null 2>&1 || {
        # Re-run loudly so the log names the failing workload.
        bash benchmark/run.sh --smoke
    }
}

# Satellite gate: the Markov layer (`damq-markov`) against the
# implementation it replaced, kept in
# `crates/markov/tests/explore_reference.rs`, for every Table 2 shape and
# the k x k model at radix 2-4. Asserts (1) exploration, CSR rows,
# rewards and Gauss-Seidel's `pi` / `iterations` / `residual` equal the
# `Vec`-state, triplet-sort, scatter-form reference (applying the same
# orbit map on 2x2 chains) bit for bit; the reference on orbits is an
# exact lumping of the reference on joint occupancies, and the 2x2
# models are equivariant under swapping inputs and outputs; the default
# solver (restarted GMRES) agrees with the reference's damped power
# iteration as a distribution and with a plain-`Vec` model of itself bit
# for bit; eight seeded mutations must fail; a Table 2 pass stays inside
# its budget of state updates (products x orbits: exact counts, no quiet
# host needed); the model checker's reachable joint states are the ones
# the chain's orbits stand for (`damq-verify`'s `markov_cross`); (2)
# the four Markov harnesses regenerate the committed tables and reports
# byte for byte - a promise about this
# tree, not across solvers: a change of solver moves the reports'
# `iterations` and last digits and regenerates them. ~10 s after the
# release build, so a Markov change is checkable without the full test
# suite and `results-check`, which cover both legs in a complete run.
markov_smoke() {
    gate "markov-smoke: explorer, lumping and solvers vs the reference, with teeth, within the work budget"
    cargo test -q -p damq-markov --test explore_reference
    cargo test -q -p damq-verify --test markov_cross

    gate "markov-smoke: the four Markov harnesses regenerate the committed tree"
    bash scripts/regen_results.sh --check table2 markov_4x4 markov_queueing ablation_dafc
}

# Satellite gate: the committed results are what the code produces. All
# 18 regeneration harnesses plus fault_degradation run into a temporary
# directory (~30 s on 2 CPUs); every stdout must equal results/<bin>.txt
# byte for byte and every report must equal results/json/<bin>.json
# outside its run-varying `run` / `telemetry` keys. A refactor that
# claims byte identity passes this without regenerating anything.
results_check() {
    gate "results-check: committed tables and reports regenerate byte for byte"
    bash scripts/regen_results.sh --check
}

# Tentpole gate: the in-tree static analyzer. The eleven structural lints
# (lexer-backed, no regex) must report zero findings, the generated
# unsafe ledger must be fresh, and — in the full run — clippy and
# rustfmt must agree. The bare-lint pass is budgeted at ~2s so it stays
# cheap enough to run on every edit; the xtask prints per-lint timings.
analyze() {
    gate "analyze: eleven structural lints + unsafe-ledger freshness"
    cargo xtask lint --no-cargo

    gate "analyze: non-test code lines per crate"
    cargo xtask loc

    gate "analyze: clippy + rustfmt"
    cargo xtask lint
}

case "${1:-all}" in
analyze)
    analyze
    echo "analyze passed"
    exit 0
    ;;
fault-smoke)
    fault_smoke
    echo "fault-smoke passed"
    exit 0
    ;;
obs-smoke)
    obs_smoke
    echo "obs-smoke passed"
    exit 0
    ;;
soa-smoke)
    soa_smoke
    echo "soa-smoke passed"
    exit 0
    ;;
chaos-smoke)
    chaos_smoke
    echo "chaos-smoke passed"
    exit 0
    ;;
bench-smoke)
    bench_smoke
    echo "bench-smoke passed"
    exit 0
    ;;
markov-smoke)
    markov_smoke
    echo "markov-smoke passed"
    exit 0
    ;;
results-check)
    results_check
    echo "results-check passed"
    exit 0
    ;;
all) ;;
*)
    echo "usage: scripts/check.sh [analyze|fault-smoke|obs-smoke|soa-smoke|chaos-smoke|bench-smoke|markov-smoke|results-check]" >&2
    exit 2
    ;;
esac

analyze

gate "build (release)"
cargo build --release --workspace

gate "tests"
cargo test --workspace -q

gate "tests under strict-audit (audit every buffer op)"
cargo test -q -p damq-core --features strict-audit
cargo test -q -p damq-net --features strict-audit
cargo test -q -p damq-microarch --features strict-audit

gate "model checker (2x2 exhaustive, small bound)"
cargo run -q -p damq-verify --bin model_check -- --quick

gate "telemetry: golden 2x2 trace is byte-stable"
cargo test -q -p damq-net --test telemetry

gate "telemetry: disabled instrumentation compiles away"
cargo bench -p damq-bench --bench no_op_sink_overhead

gate "dispatch smoke: both dispatch paths agree"
cargo bench -p damq-bench --bench sim_throughput -- --smoke

fault_smoke

obs_smoke

soa_smoke

chaos_smoke

bench_smoke

# (markov-smoke is a shortcut, not a gate of its own here: the "tests"
# gate above ran its differential and results-check reruns its harnesses.)
results_check

gate "rustdoc (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "all checks passed"
