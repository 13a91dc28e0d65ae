#!/usr/bin/env bash
# CI entry point: build, test, lint, docs, bench compile, benchmark smoke.
#
#   ./ci.sh              # everything (source policies + tier-1 + clippy +
#                        #   fmt + docs + bench compile + release tests +
#                        #   examples + crc32 paths + fuzz smoke +
#                        #   serve-job battery + chain lint + benchmark
#                        #   smoke)
#   ./ci.sh quick        # source policies + tier-1 (build --release && test -q)
#   ./ci.sh lint-chains  # river-lint over every shipped pipeline chain
#   ./ci.sh river-bench-smoke  # river-bench all --smoke: every
#                        #   workload for ~2 s, plumbing only; fails on
#                        #   a failed clip or a failed benchmark check
#                        #   (a timing check only if it fails twice)
#   ./ci.sh release-tests  # cargo test --release: the suite under the
#                        #   optimiser, minus one river-bench unit test
#                        #   that cannot read CPU time at smoke size
#   ./ci.sh docs         # rustdoc with warnings as errors (doctests run
#                        #   under plain `cargo test`)
#
# Requires only a Rust toolchain — the workspace has no network
# dependencies (see DESIGN.md § Shims). Every phase prints its
# wall-clock time so CI log triage shows where the minutes go.
set -euo pipefail
cd "$(dirname "$0")"

# --- per-phase wall-clock timing -------------------------------------
CI_T0=$SECONDS
PHASE_T0=$SECONDS
PHASE_NAME=""
phase() {
    phase_end
    PHASE_NAME="$1"
    PHASE_T0=$SECONDS
    echo "==> $1"
}
phase_end() {
    if [ -n "$PHASE_NAME" ]; then
        echo "    [phase '$PHASE_NAME' took $((SECONDS - PHASE_T0))s]"
    fi
    PHASE_NAME=""
}

# --- benchmark self-verification ---------------------------------------
# Runs all four river-bench workloads at smoke scale (about half a
# minute; the numbers mean nothing at this size) so the benchmark's own
# verification runs on every push: every clip's output digest against
# the single-lane reference, the trace's closure ratio, and each
# workload loading the layer it was chosen for (`spectrum` >= 70% of
# `ensembles` stage time, `saxanomaly` >= 60% of `archive`'s). Reports,
# traces and the run's log land in the git-ignored .river-bench/.
#
# A failed clip, a run that did not finish, or a failed structural check
# (failed_share, stage shares, stage spans) fails the phase at once. The
# four timing checks are read off passes of a few milliseconds at this
# size, and a stall of the host moves them: a run that fails only those
# is repeated once, and the phase fails if the second run does too.
river_bench_smoke() {
    local log=.river-bench/smoke.log attempt
    local timing='trace\.overhead_ratio|loadgen\.late_ms_p95|pipeline\.closure_ratio|relay_wire above fleet_serve'
    mkdir -p .river-bench
    for attempt in 1 2; do
        if cargo run --release --quiet -p ensemble-bench --bin river-bench -- \
            all --smoke | tee "$log"; then
            return 0
        fi
        if ! grep -q '^{"attempted": [0-9]*, "failed": 0,' "$log" ||
            grep '^  FAIL ' "$log" | grep -qvE "$timing"; then
            echo "river-bench-smoke: failed clip or structural check" >&2
            return 1
        fi
        echo "river-bench-smoke: only timing checks failed (run $attempt of 2)" >&2
    done
    return 1
}

# --- the suite under the optimiser --------------------------------------
# `cargo test --release` over the workspace: the release-only gates
# (telemetry budget) and every differential at the float code the
# shipped binaries run. One test is left to the debug run of tier-1:
# river-bench's `smoke_runs_every_workload_end_to_end` asserts
# `cpu_us_per_record > 0`, read from /proc/self/stat in 10 ms ticks, and
# since PR 12 an optimised `--smoke` pass of `ensembles` takes ~5 ms, so
# the metric reads 0 there (full-size passes span 13-14 ticks). Its
# panic would also poison the lock two sibling tests share. The fix
# belongs in the benchmark's files (ROADMAP open item 0); drop the
# --skip with it.
release_tests() {
    cargo test --release -q -- --skip smoke_runs_every_workload_end_to_end
}

# --- rustdoc gate -----------------------------------------------------
# The API docs must build warning-free (broken intra-doc links are the
# usual regression); doctests themselves run under `cargo test`.
docs_check() {
    RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --quiet
}

# --- unsafe policy ------------------------------------------------------
# `dynamic-river` denies `unsafe_code` and exempts one function for one
# call, into the CRC-32 folding kernel behind its CPU-feature check
# (crate docs, "Unsafe policy"). The lint cannot count exemptions, so
# this does: one unsafe block and one lint exemption in the crate's
# sources, comments and docs included.
unsafe_policy() {
    local blocks allows
    blocks=$(grep -rF 'unsafe {' crates/river/src | wc -l)
    allows=$(grep -rF 'allow(unsafe_code)' crates/river/src | wc -l)
    if [ "$blocks" -ne 1 ] || [ "$allows" -ne 1 ]; then
        echo "unsafe-policy: crates/river/src has $blocks 'unsafe {' and" \
            "$allows 'allow(unsafe_code)'; the policy is exactly one of each" >&2
        grep -rnF -e 'unsafe {' -e 'allow(unsafe_code)' crates/river/src >&2
        return 1
    fi
}

# --- one Figure 5 -------------------------------------------------------
# Extraction and featurization exist once, as the operators: `extract`,
# `extract_from`, `extract_with_trace` and `featurize_ensemble` drive
# the shipped chain (DESIGN.md §3, "One Figure 5"). The sample-granular
# fork PR 24 deleted must not come back under its old names, in code or
# in prose; its state machine lives on as a test oracle under other ones.
one_figure5() {
    local fork='StreamingExtractor|StreamStep|extract_stream|push_chunk|push_sample'
    if grep -rnE "$fork" crates src tests examples README.md DESIGN.md docs .claude; then
        echo "one-figure5: the per-sample extraction fork is named above;" \
            "drive extraction_segment / featurization_segment instead" >&2
        return 1
    fi
}

# --- static chain verification ---------------------------------------
# Runs river-lint over every shipped pipeline chain (Figure 5 plus the
# standalone segments, the chains every example composes) and fails on
# any error-severity diagnostic (DESIGN.md §15).
lint_chains() {
    cargo run --release --quiet -p ensemble-bench --bin river-lint
}

if [ "${1:-}" = "lint-chains" ]; then
    lint_chains
    exit 0
fi
if [ "${1:-}" = "river-bench-smoke" ]; then
    river_bench_smoke
    exit 0
fi
if [ "${1:-}" = "release-tests" ]; then
    release_tests
    exit 0
fi
if [ "${1:-}" = "docs" ]; then
    docs_check
    exit 0
fi

phase "unsafe-policy (one unsafe block, one exemption in dynamic-river)"
unsafe_policy

phase "one-figure5 (no second extraction path)"
one_figure5

# The whole pipeline compiles warning-free; keep it that way.
export RUSTFLAGS="-D warnings"

phase "cargo build --release (RUSTFLAGS=-D warnings)"
cargo build --release

phase "cargo test -q"
cargo test -q

if [ "${1:-}" != "quick" ]; then
    if cargo clippy --version >/dev/null 2>&1; then
        phase "cargo clippy --all-targets (warnings are errors)"
        cargo clippy --all-targets --quiet -- -D warnings
    else
        echo "==> cargo clippy --all-targets (skipped: clippy unavailable)"
    fi

    if cargo fmt --version >/dev/null 2>&1; then
        phase "cargo fmt --check"
        cargo fmt --check
    else
        echo "==> cargo fmt --check (skipped: rustfmt unavailable)"
    fi

    phase "cargo doc --no-deps (warnings are errors)"
    docs_check

    phase "cargo bench --no-run (benches must compile)"
    cargo bench --no-run --quiet

    phase "release-tests (cargo test --release)"
    release_tests

    # Exercise the execution core end-to-end under each lane policy:
    # quickstart and anomaly_monitor drive real pipelines inline
    # (run_streaming, through `extract_from`); parallel_archive is the
    # one example on run_sharded and asserts sharded == single-lane
    # byte-identity;
    # distributed_pipeline serves a concurrent client fleet through the
    # multi-session PipelineServer over loopback TCP. (species_survey,
    # the fifth example, is a classification study, not an execution
    # path.)
    phase "examples (release)"
    cargo run --release --quiet --example quickstart
    cargo run --release --quiet --example anomaly_monitor
    cargo run --release --quiet --example parallel_archive
    cargo run --release --quiet --example distributed_pipeline

    # Both paths of the checksum are forced against the bit-at-a-time
    # reference whatever this host dispatches to; uncaptured, so a CPU
    # without pclmulqdq shows its skipped kernel legs in this log.
    phase "crc32 paths (tables, fold kernel, dispatch; --nocapture)"
    cargo test -q -p dynamic-river --lib codec::tests::crc32 -- --nocapture

    # Decoder fuzz smoke: bounded, deterministic (fixed seeds inside the
    # battery, fixed iteration count here) so CI time is predictable and
    # failures reproduce with plain `FUZZ_ITERS=2048 cargo test`.
    phase "fuzz smoke (decoder battery, FUZZ_ITERS=2048)"
    FUZZ_ITERS=2048 cargo test -q -p dynamic-river --test fuzz_decoder

    # The served session's job against a scripted socket (read sizes,
    # WouldBlock/EOF/reset/stall anywhere, corruption, a panicking
    # sink), each seed held to run_streaming over the bytes delivered.
    # Seeds are independent: a failure names the one to replay. The
    # release-tests phase above has run the first 256 under the
    # optimiser.
    phase "serve-job battery (scripted socket, FUZZ_ITERS=2048)"
    FUZZ_ITERS=2048 cargo test -q -p dynamic-river --lib serve::job_battery

    # Static chain verification: every shipped chain must lint clean
    # (zero error-severity diagnostics, DESIGN.md §15).
    phase "lint-chains (river-lint over every shipped chain)"
    lint_chains

    phase "river-bench-smoke (benchmark plumbing + its own checks)"
    river_bench_smoke
fi

phase_end
echo "==> ci.sh: all green ($((SECONDS - CI_T0))s total)"
