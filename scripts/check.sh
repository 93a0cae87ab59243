#!/usr/bin/env bash
# The repo's offline quality gate: static analysis (six structural
# lints + clippy, carrying the workspace's rustc/clippy lints, + rustfmt),
# build, the full test suite
# (with and without per-operation invariant audits), the exhaustive 2x2
# model checker, the fault-injection smoke (paired healed ordering + a
# tiny fault sweep), the observability smoke (metrics-registry golden + disabled
# overhead), the chaos soak smoke (recovery protocols under randomized
# fault storms, minimized-reproducer loop and violation dump), the
# benchmark smoke (every
# BENCHMARK.json workload at 1/10 size against its pinned fingerprint),
# the results check (every committed table and report regenerates byte
# for byte), and rustdoc with warnings denied
# (the workspace's `missing_docs = "deny"` makes any missing doc a hard
# failure already at compile time).
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

# Satellite gate: the fault experiments. Asserts (1) with healing on,
# the designs keep the paper's ordering on every paired draw of
# recovery_headline's fabric (the damq-bench integration test); (2) the
# smoke grid completes end to end through the real binary. A cell that
# panics fails the binary, so its exit status is the check.
fault_smoke() {
    gate "fault-smoke: healed designs keep the paper ordering, draw by draw"
    cargo test -q -p damq-bench --test self_healing

    gate "fault-smoke: tiny fault sweep completes"
    local tmp
    tmp="$(mktemp -d)"
    DAMQ_RESULTS_DIR="$tmp" \
        cargo run -q -p damq-bench --bin fault_degradation -- --smoke \
        > /dev/null
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
# replaced (departures, `can_send` sequence, arbiter, buffer and HOL
# state; two seeded mutations must fail), and radix-8 and
# radix-16 networks run both protocols to conservation; (7) the source
# queue's delta-coded stream agrees with the `VecDeque` it replaced
# (three seeded mutations must fail), a saturated backlog stays inside
# its pinned three bytes a packet, and every design generates the same
# packets at one seed, so the stream's contents do not hang on the
# buffer under test.
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

    gate "soa-smoke: source stream vs a VecDeque, with teeth, its byte budget, and design-blind generation"
    cargo test -q -p damq-net --lib -- source::
    cargo test -q -p damq-net --test source_backlog layout_
    cargo test -q -p damq-net --test generation_stream

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
# replayable reproducer in its violation dump (the damq-bench
# integration test); (2) the CI-sized soak grid — randomized per-epoch
# fault storms against live retransmission and rerouting, invariants
# re-audited every epoch — completes clean through the real binary.
chaos_smoke() {
    gate "chaos-smoke: seeded mutation yields a working reproducer"
    cargo test -q -p damq-bench --test chaos_soak

    gate "chaos-smoke: tiny soak grid stays clean"
    local tmp
    tmp="$(mktemp -d)"
    DAMQ_RESULTS_DIR="$tmp" \
        cargo run -q --release -p damq-bench --bin chaos_soak -- --smoke \
        > /dev/null
    # A clean soak leaves no violation dumps behind.
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
# the k x k model at radix 2-4. Asserts (1) breadth-first exploration, CSR
# rows, rewards and Gauss-Seidel's `pi` / `iterations` / `residual` equal
# the `Vec`-state, triplet-sort, scatter-form reference (applying the same
# orbit map and distinct-outcome arrivals on 2x2 chains; for FIFO, the
# head-only reference) bit for bit; the reference on orbits is an exact lumping of the reference on
# joint occupancies, and the 2x2 models are equivariant under swapping
# inputs and outputs; the default solver agrees with the reference's
# damped power iteration as a distribution and bit for bit with a
# plain-`Vec` model of the path it must take - GTH elimination and one
# product on every chain of <= 512 states whose states all reach state 0,
# restarted GMRES from the uniform vector on the rest (the 4x4 chains at
# four slots and more, reducible hand-built ones); a Table 2 pass is one
# product per cell and stays inside its budget of elimination
# multiply-adds, and of branches emitted and index lookups made (exact
# counts, no quiet host needed); (2) the seeded
# slips: two in the explorer's reference, three in the GMRES model, two in
# the elimination model (fill dropped, multipliers ascending) - each must
# fail; the solver's unit tests (entrywise accuracy of the elimination,
# where it declines, typed errors for non-square matrices, the GMRES loop
# driven from the uniform vector); (3) half (iv): arrivals enumerated by
# distinct outcomes (an arrival's two destinations one branch where they
# leave the same state with the same verdict) give the nine-way chain's
# states, numbering and row patterns, rows and rewards by bits at the
# dyadic traffic levels and within 4 ulp elsewhere - and two seeded
# folding slips must fail; half (iii): the head-only FIFO
# (each queue's length and head) on orbits is the full-sequence FIFO on
# joint occupancies, aggregated by deferred decisions - arrangements
# counted, rows class-averaged, stationary answers projected - and three
# seeded slips of it must fail; the model checker's reachable joint states
# are the ones the chain's orbits stand for (`damq-verify`'s
# `markov_cross`); (4) the four Markov harnesses regenerate the committed
# tables and reports byte for byte - a promise about this tree, not
# across solvers: a change of solver moves the reports' `iterations` and
# last digits and regenerates them. ~15 s after the release build, so a
# Markov change is checkable without the full test suite and
# `results-check`, which cover every leg in a complete run.
markov_smoke() {
    gate "markov-smoke: explorer, lumping and solvers vs the reference, within the work budget"
    cargo test -q -p damq-markov --test explore_reference -- --skip deferred_decision --skip mutation --skip distinct_outcome

    gate "markov-smoke: seeded slips (explorer, GMRES, elimination) fail; solver unit tests"
    cargo test -q -p damq-markov --test explore_reference mutation
    cargo test -q -p damq-markov --lib solve::

    gate "markov-smoke: distinct-outcome arrivals vs nine-way (half iv) with its seeded slips"
    cargo test -q -p damq-markov --test explore_reference distinct_outcome

    gate "markov-smoke: head-only FIFO vs full sequences (half iii) with its seeded slips; checker counts"
    cargo test -q -p damq-markov --test explore_reference deferred_decision
    cargo test -q -p damq-verify --test markov_cross

    gate "markov-smoke: the four Markov harnesses regenerate the committed tree"
    bash scripts/regen_results.sh --check table2 markov_4x4 markov_queueing ablation_dafc
}

# Satellite gate: the committed results are what the code produces. All
# 21 harnesses run into a temporary directory (~40 s on 2 CPUs); every
# stdout must equal results/<bin>.txt and every report
# results/json/<bin>.json byte for byte (`cmp`, no keys excepted), and
# each harness's wall-clock is printed. A refactor that claims byte
# identity passes this without regenerating anything.
results_check() {
    gate "results-check: committed tables and reports regenerate byte for byte"
    bash scripts/regen_results.sh --check
}

# Tentpole gate: static analysis. The six structural lints no compiler
# lint states (lexer-backed, no regex; lint 8 checks every manifest opts
# into the workspace lints and the four `clippy.toml` agree; lint 13 finds
# the panics clippy cannot see inside `macro_rules!` bodies) must report
# zero findings, and — in the full run — clippy (all targets, all
# features, warnings denied: the no-panic, no-print, determinism,
# must-use and docs rules, and every `#[expect]` waiver still firing) and
# rustfmt must agree. The bare-lint pass is budgeted at ~2s so it stays
# cheap enough to run on every edit; the xtask prints per-lint timings.
analyze() {
    gate "analyze: six structural lints"
    cargo xtask lint --no-cargo

    gate "analyze: non-test code lines per crate"
    cargo xtask loc

    gate "analyze: clippy (the rustc/clippy lints) + rustfmt"
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
