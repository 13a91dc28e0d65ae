#!/usr/bin/env bash
# CI entry point: build, test, lint, docs, benchmark smoke.
#
#   ./ci.sh              # everything (source policies + tier-1 + clippy +
#                        #   fmt + docs + release tests + examples +
#                        #   crc32 paths + fuzz smoke + serve-job battery +
#                        #   chain lint + benchmark smoke)
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
#   ./ci.sh shims_as_used  # the shims-as-used source policy alone
#   ./ci.sh one_figure5  # the one-Figure-5 source policy alone
#   ./ci.sh one_ledger   # the one-ledger source policy alone
#   ./ci.sh only_what_ships  # the only-what-ships source policy alone
#   ./ci.sh numerics     # the numerics gates alone, in release: the
#                        #   anomaly kernel and smoother against their
#                        #   per-sample reference, the golden score
#                        #   digests, the boundary harness and the
#                        #   trigger differential
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
# (telemetry budget), the release-sized pools (the boundary harness in
# crates/core/tests/boundaries.rs runs 8 seeds × 11 paper-scale clips
# here, 1 seed in the debug run) and every differential at the float
# code the shipped binaries run. One test is left to the debug run of tier-1:
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

# --- numerics gates -----------------------------------------------------
# The tests that hold the scoring front end to its stated error bounds
# (DESIGN.md §14, "The divider leaves the chain" and "Symbols in
# squares"): `block_kernel` (every block cut exact, the per-sample
# reference within the bounds), the anomaly unit tests (the tie battery
# at every breakpoint of alphabets 2, 3, 8, 64 and 256, the cancelling
# streams, the band's margin, and E and ΣD² against rebuilt bitmaps),
# `saxanomaly_block` (golden score digests, non-finite and overflowing
# samples) and `boundaries` (no ensemble boundary moves against the old
# front end over the release-sized pools; the trigger's decisions
# against the Welford trigger). A subset of release-tests, for a change
# to the numerics that wants its verdict in a minute.
numerics() {
    cargo test --release -q -p river-sax --test block_kernel
    cargo test --release -q -p river-sax --lib anomaly::
    cargo test --release -q -p ensemble-core --test saxanomaly_block --test boundaries
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

# --- shims as used --------------------------------------------------------
# The offline shims stand in only for what std cannot do (DESIGN.md §9).
# The `bytes` shim and the sharded runner's queue-capacity setter are
# gone: payload bytes are an `Arc<[u8]>` and the shard queues are std
# `sync_channel`s. So are the `criterion` shim, its benches and the bench
# profile: river-bench is the one measuring instrument, so no second
# one, nor its knobs, may come back in code or in prose (matched without
# case). So is the `proptest` shim: every property runs on the `seeds`
# crate's numbered `StdRng` seeds, so neither the shim nor its macros
# and config may come back. The `crossbeam` shim is the session pool's
# job queue, and `serve.rs` is the one file outside the shims that
# names it.
shims_as_used() {
    local gone='\bbytes::|BytesMut|BufMut|set_queue_capacity|shims/bytes' users
    gone+='|cargo bench|\[\[bench\]\]|benches/|shims/criterion|`criterion`'
    gone+='|criterion(::|_group|_main|-style| shim| benches|\.workspace)|CRITERION_FAST|bench-fast|profile\.bench'
    gone+='|proptest|prop_assert|prop_oneof|ProptestConfig|shims/proptest'
    if grep -rniE "$gone" crates src tests examples Cargo.toml README.md DESIGN.md docs .claude; then
        echo "shims-as-used: a deleted shim, bench or queue setter is named above;" \
            "measure with river-bench, test properties with seeds::check" >&2
        return 1
    fi
    users=$(grep -rlF 'crossbeam::' crates src tests examples | grep -v '^crates/shims/' | sort)
    if [ "$users" != "crates/river/src/serve.rs" ]; then
        echo "shims-as-used: crossbeam:: is named outside crates/shims/ by" \
            "'${users//$'\n'/ }'; the one user is crates/river/src/serve.rs" >&2
        return 1
    fi
}

# --- one Figure 5 -------------------------------------------------------
# Extraction and featurization exist once, as the shipped operators:
# `extract`, `extract_from`, `extract_with_trace` and
# `featurize_ensemble` drive the shipped chain (DESIGN.md §3, "One
# Figure 5"), and `spectrum` is the one spectral stage (§14): the
# figures drive it through `reslice` (`spectrogram_columns`), the
# datasets without. No deleted fork may come back under its old names,
# in code or in prose: not the sample-granular extractor, nor the four
# public spectral operators with their complex subtype, nor the second
# STFT loop the figures ran with its column helpers, nor the setting
# that put `reslice` into the datasets' chain. The first two live on as
# test oracles in crates/core/tests/common/mod.rs under other names.
one_figure5() {
    local fork='StreamingExtractor|StreamStep|extract_stream|push_chunk|push_sample'
    fork+='|\b(WelchWindow|Float2Cplx|Dft|Cabs)\b|subtype::SPECTRUM'
    fork+='|\bSpectrogram\b|SpectrogramConfig|map_columns|river_dsp::spectrogram|pub mod spectrogram'
    fork+='|\.reslice\b|reslice:([^:]|$)'
    if grep -rnE "$fork" crates src tests examples README.md DESIGN.md docs .claude; then
        echo "one-figure5: a deleted extraction or spectral fork is named above;" \
            "drive extraction_segment / featurization_segment instead" >&2
        return 1
    fi
}

# --- one way to move a segment -------------------------------------------
# A segment moves between hosts when its sender redirects at a balanced
# point (`StreamOut::redirect`, DESIGN.md §3). The in-process coordinator
# that moved a lane between host names must not come back.
no_coordinator() {
    local gone='RelocatablePipeline|SegmentCommand|SegmentReport|ChannelSink'
    if grep -rnE "$gone" crates src tests examples README.md DESIGN.md docs .claude; then
        echo "no-coordinator: the in-process relocation coordinator is named above;" \
            "move a segment with StreamOut::redirect instead" >&2
        return 1
    fi
}

# --- one entry point per runner ------------------------------------------
# Each lane policy has one door (DESIGN.md §3): `Pipeline::run_sharded`
# shards a chain and `PipelineServer` serves one. The sharded runtime
# type, the Figure 5 sharding and serving wrappers, and the telemetry
# knobs nothing called must not come back.
one_door() {
    local gone='ShardedPipeline|full_pipeline_sharded|serve_with_telemetry|EnsembleExtractor::serve'
    gone+='|set_min_severity|with_lane'
    if grep -rnE "$gone" crates src tests examples README.md DESIGN.md docs .claude; then
        echo "one-door: a deleted runner wrapper or telemetry knob is named above;" \
            "use Pipeline::run_sharded or PipelineServer" >&2
        return 1
    fi
}

# --- one per-stage ledger -------------------------------------------------
# A stage's latency histogram lives in its `StageStats` and merges with
# the counters (DESIGN.md §16). The shared timer registry, its fork and
# merge, the counting and inspecting operators and the public items
# nothing called must not come back, and the telemetry module keeps one
# atomic: the event log's sequence counter.
one_ledger() {
    local gone='StageTimer|stage_timers|fork_stages|merge_stages|note_drop|RecordCounter'
    gone+='|CounterHandle|CounterStats|Inspect::new|add_boxed|total_dropped|sessions_completed'
    local atomics
    if grep -rnE "$gone" crates src tests examples README.md DESIGN.md docs .claude; then
        echo "one-ledger: a deleted per-stage account or unused item is named above;" \
            "per-stage numbers live in StageStats" >&2
        return 1
    fi
    atomics=$(grep -nE 'Atomic[A-Za-z0-9]*' crates/river/src/telemetry.rs |
        grep -vE '^[0-9]+:use std::sync::atomic::\{AtomicU64, Ordering\};$|^[0-9]+: +seq: AtomicU64' || true)
    if [ -n "$atomics" ]; then
        echo "one-ledger: crates/river/src/telemetry.rs holds an atomic besides the" \
            "event log's sequence counter:" >&2
        echo "$atomics" >&2
        return 1
    fi
}

# --- only what ships -----------------------------------------------------
# The library holds what the tables, the classifier, the examples and
# the served chains run; an oracle lives in the tests. MESO is a linear
# scan to the nearest sphere, a sphere-majority vote and one δ rule
# (DESIGN.md §7), and its protocols are leave-one-out and
# resubstitution. The stage-at-a-time reference, the fault injectors
# and the toy operators are the test kit, crates/river/tests/testkit/,
# and the paper's `readout` is a `StreamOut` over a file. None of the
# deleted items may come back, in code or in prose; the generic names
# are matched qualified or call-shaped so prose does not trip them. The
# Goertzel probe is a test helper of the synthesizer's tests
# (crates/core/src/synth/tone.rs), so only a library module or path of
# that name is matched.
# Then the library itself — each
# crates/*/src file outside the bench crate, up to its test module, the
# served job's test battery skipped — may not name a test-kit item or
# a reference the tests keep (`dft_naive`, `norm_cdf`).
only_what_ships() {
    local gone='SphereTree|build_index|classify_indexed|QueryMode|NearestPattern|FirstDistance'
    gone+='|DeltaPolicy|k_fold|train_all|run_batch|Readout|Ewma|bin_frequency|frequency_bin'
    gone+='|CorruptSubtype|send_all_with|normalize_oscillogram|signal::energy|dbfs|band_presence'
    gone+='|high_pass|\.applied\(|coherent_gain|column_time|max_magnitude|sample_std_dev|from_polar'
    gone+='|mindist|paa_inverse|map_features|classify_pattern|context_key::SPECIES|open_scopes'
    gone+='|total_records|goertzel::|pub mod goertzel'
    # Settings no shipped caller gave a second value: the whole-stream
    # normaliser, five window shapes, the log-scale switch and the
    # hold-less trigger constructor.
    gone+='|Normalization|global_squares|WindowKind::(Rectangular|Hann|Hamming|Blackman|Bartlett)'
    gone+='|\.log_scale\b|log_scale:|with_hold'
    # Payload kinds no shipped producer emits (complex samples and text),
    # their wire block types, and the frame-boundary finder that only
    # tests called. One exception: `Payload::as_complex` stays, always
    # `None`, because river-bench's clip digest calls it; it goes with
    # the next change that may edit the benchmark (ROADMAP item 22).
    gone+='|Payload::Complex|Payload::Text|Payload::complex|PayloadKind::(Complex|Text)'
    gone+='|as_complex_buf|\bas_text\b|TLV_COMPLEX|TLV_TEXT|\bframe_len\b'
    if grep -rnE "$gone" crates src tests examples README.md DESIGN.md docs .claude; then
        echo "only-what-ships: a library item that only its own tests ran is named above;" \
            "keep oracles in the tests" >&2
        return 1
    fi
    local kit='FailAfter|DropCloses|TruncateAfter|WireMangler|Mangle|FnOp|MapPayload|RecordFilter'
    kit+='|Passthrough|ScopeSum|FnSink|serve_once|dft_naive|\bnorm_cdf|pub mod fault'
    local file found hits=''
    for file in $(find crates/*/src -name '*.rs' | grep -v -e '^crates/bench/' -e '/serve/job_battery\.rs$'); do
        found=$(awk '/^#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ": " $0 }' "$file" |
            grep -E "$kit" || true)
        if [ -n "$found" ]; then
            hits+="$found"$'\n'
        fi
    done
    if [ -n "$hits" ]; then
        echo "$hits"
        echo "only-what-ships: library code names a test-kit item above;" \
            "it belongs in crates/river/tests/testkit/ or the tests that use it" >&2
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
if [ "${1:-}" = "shims_as_used" ]; then
    shims_as_used
    exit 0
fi
if [ "${1:-}" = "one_figure5" ]; then
    one_figure5
    exit 0
fi
if [ "${1:-}" = "one_ledger" ]; then
    one_ledger
    exit 0
fi
if [ "${1:-}" = "only_what_ships" ]; then
    only_what_ships
    exit 0
fi
if [ "${1:-}" = "numerics" ]; then
    numerics
    exit 0
fi

phase "unsafe-policy (one unsafe block, one exemption in dynamic-river)"
unsafe_policy

phase "shims-as-used (no bytes, criterion or proptest shim, no benches; crossbeam only in serve.rs)"
shims_as_used

phase "one-figure5 (no second extraction or spectral path)"
one_figure5

phase "no-coordinator (segments move by StreamOut::redirect)"
no_coordinator

phase "one-door (run_sharded shards, PipelineServer serves)"
one_door

phase "one-ledger (per-stage numbers live in StageStats)"
one_ledger

phase "only-what-ships (no library path that only its own tests run)"
only_what_ships

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

    phase "release-tests (cargo test --release)"
    release_tests

    # Exercise the execution core end-to-end under each lane policy:
    # quickstart and anomaly_monitor drive real pipelines inline
    # (run_streaming, through `extract_from`); parallel_archive is
    # run_sharded over full_pipeline and asserts sharded == single-lane
    # byte-identity; distributed_pipeline serves a concurrent client
    # fleet through a PipelineServer built from_factory(full_pipeline)
    # over loopback TCP. (species_survey,
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
    # sink) and a scripted pool (another job waiting never, from the
    # k-th ask on, or always), each seed held to run_streaming over the
    # bytes delivered. Seeds are independent: a failure names the one to
    # replay. Uncaptured, so the log shows how many seeds reached each
    # path — the contended bound and the lone firehose among them. The
    # release-tests phase above has run the first 256 under the
    # optimiser.
    phase "serve-job battery (scripted socket and pool, FUZZ_ITERS=2048; --nocapture)"
    FUZZ_ITERS=2048 cargo test -q -p dynamic-river --lib serve::job_battery -- --nocapture

    # Static chain verification: every shipped chain must lint clean
    # (zero error-severity diagnostics, DESIGN.md §15).
    phase "lint-chains (river-lint over every shipped chain)"
    lint_chains

    phase "river-bench-smoke (benchmark plumbing + its own checks)"
    river_bench_smoke
fi

phase_end
echo "==> ci.sh: all green ($((SECONDS - CI_T0))s total)"
