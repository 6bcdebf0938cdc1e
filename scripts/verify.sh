#!/usr/bin/env sh
# Repository verification gate: build, lint, test.
#
# Run from the repository root. Fails fast on the first broken step.
# Clippy runs with -D warnings so lint regressions block merges.
set -eu

cargo build --workspace --release
cargo clippy --workspace --all-targets --release -- -D warnings
# Rustdoc under the same gate: a deleted or private item must not leave a
# dangling intra-doc link behind.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
cargo test --workspace --release
# The benchmark (bench-ledger/, run by BENCHMARK.json) is a workspace of its
# own that nothing above compiles; lint it under the same -D warnings gate,
# build it and run its toy-size tests so an API change in the crates it
# drives fails here, not in the benchmark run.
cargo clippy --release --offline --manifest-path bench-ledger/Cargo.toml --all-targets -- -D warnings
cargo test --release --offline --manifest-path bench-ledger/Cargo.toml
# The vendored stand-in crates (vendor/README.md) sit outside the workspace
# too, and every export goes through the JSON printer in vendor/serde. Run
# each stub's own tests, building outside the repo.
STUB_TARGET=$(mktemp -d)
for manifest in vendor/*/Cargo.toml; do
    CARGO_TARGET_DIR="$STUB_TARGET" cargo test --offline --manifest-path "$manifest"
done
rm -rf "$STUB_TARGET"

# The parallel block-simulation driver must be bit-identical at any worker
# count; exercise the TAHOE_SIM_THREADS env path at 1 and 4 workers. The
# determinism suite also pins the five telemetry views (DESIGN.md §2.9:
# Chrome trace, metrics snapshot, kernel profiles, time series, decisions)
# byte-for-byte across worker counts; telemetry_schema keeps the trace
# loadable by Perfetto, profile_schema pins the profiler view,
# timeseries_schema the windowed series, decision_schema the flight-recorder
# view and its critical-path sum invariant plus the calibrated-engine
# byte-diff (DESIGN.md §2.16), and drift_audit bounds model-vs-simulator
# error. property_based rides along so
# the functional equivalence proofs (every format/plan/strategy vs the CPU
# reference) hold at both worker counts.
# The rearrange unit tests pin the §4.2 tree orders and checksums, whose
# SimHash stage runs on the worker pool; the tune unit tests compare the
# ladder's shared-data pick with every rung's simulated time exactly.
for workers in 1 4; do
    TAHOE_SIM_THREADS=$workers \
        cargo test --release --test determinism --test telemetry_schema \
        --test profile_schema --test timeseries_schema \
        --test decision_schema \
        --test drift_audit --test property_based
    TAHOE_SIM_THREADS=$workers cargo test --release -p tahoe --lib rearrange
    TAHOE_SIM_THREADS=$workers cargo test --release -p tahoe --lib tune
done

# Regression gate: the committed results/ (smoke scale, detail 4) and
# results/ci/ (the scale of record, detail 16) are the reference.
# gate_results <dir> <all args> regenerates the whole suite with `all`,
# which also writes the SUMMARY.md digest from its typed results, into a
# scratch dir, then requires every file of
# <dir> and of the regenerated copy to match byte for byte, so a file on
# only one side fails too (subdirectories, such as results/ci/ inside
# results/, are gated by their own call). Every recorded quantity is
# deterministic, so any change to a cost model, the tuner, the layout, a
# strategy or the JSON printer fails here. The runs use the default
# disabled telemetry sink, so they also check that telemetry-off runs end
# to end. The ci run takes about 75 s on a 2-core host once the ci
# forests are cached (the first run trains them into
# target/tahoe-forest-cache/). To re-baseline after an intended change,
# rerun the commands in EXPERIMENTS.md ("Regression gate") and commit the
# directory that moved.
gate_results() {
    committed=$1
    shift
    regen=$(mktemp -d)
    TAHOE_RESULTS_DIR="$regen" cargo run --release -p tahoe-bench --bin all -- "$@"
    for f in "$committed"/* "$regen"/*; do
        if [ -d "$f" ]; then
            continue
        fi
        name=$(basename "$f")
        cmp "$committed/$name" "$regen/$name" \
            || { echo "$committed gate: $name differs or exists on one side only (regenerated copy in $regen)"; exit 1; }
    done
    rm -rf "$regen"
}
gate_results results --scale smoke --detail 4
gate_results results/ci --scale ci --detail 16

# Byte-compares the five telemetry views (DESIGN.md §2.9) of two
# `--telemetry <dir>` runs.
cmp_views() {
    for view in trace metrics profiles timeseries decisions; do
        cmp "$1/$view.json" "$2/$view.json"
    done
}

# End-to-end profiler view: a smoke experiment with --telemetry must write
# byte-identical views at 1 and 4 workers, and `tahoe-cli profile` must
# digest the recorded profiles.json into per-kernel lines. `grep -q` closes
# the pipe at its first match and the pipeline's status is grep's, so a CLI
# panic is caught from its stderr instead. Like the cluster runs below,
# all five files are compared whole.
PROFILE_W1=$(mktemp -d)
PROFILE_W4=$(mktemp -d)
TAHOE_SIM_THREADS=1 TAHOE_RESULTS_DIR="$PROFILE_W1" \
    cargo run --release -p tahoe-bench --bin fig7_overall -- \
    --scale smoke --detail 4 --telemetry "$PROFILE_W1"
TAHOE_SIM_THREADS=4 TAHOE_RESULTS_DIR="$PROFILE_W4" \
    cargo run --release -p tahoe-bench --bin fig7_overall -- \
    --scale smoke --detail 4 --telemetry "$PROFILE_W4"
cmp_views "$PROFILE_W1" "$PROFILE_W4"
cargo run --release --bin tahoe-cli -- profile \
    --telemetry "$PROFILE_W1" 2>"$PROFILE_W4/profile.stderr" \
    | grep -q "limited by"
if grep -q "panicked" "$PROFILE_W4/profile.stderr"; then
    cat "$PROFILE_W4/profile.stderr" >&2
    exit 1
fi
rm -rf "$PROFILE_W1" "$PROFILE_W4"

# Multi-GPU determinism end-to-end (DESIGN.md S2.11): the fig9 cluster
# experiment and a heterogeneous serving trace must produce byte-identical
# records and telemetry views at 1 and 4 simulation workers. Each run gets
# its own results dir so the byte-compare covers the JSON record itself. The
# serving mix repeats the P100, so its cluster builds slots both ways: new
# models from slot 0's layout plan and the repeat as a replica of its twin.
FIG9_W1=$(mktemp -d)
FIG9_W4=$(mktemp -d)
TAHOE_SIM_THREADS=1 TAHOE_RESULTS_DIR="$FIG9_W1" \
    cargo run --release -p tahoe-bench --bin fig9_scaling -- \
    --scale smoke --detail 4 --telemetry "$FIG9_W1/fig9"
TAHOE_SIM_THREADS=4 TAHOE_RESULTS_DIR="$FIG9_W4" \
    cargo run --release -p tahoe-bench --bin fig9_scaling -- \
    --scale smoke --detail 4 --telemetry "$FIG9_W4/fig9"
cmp "$FIG9_W1/fig9_scaling.json" "$FIG9_W4/fig9_scaling.json"
cmp_views "$FIG9_W1/fig9" "$FIG9_W4/fig9"
cargo run --release --bin tahoe-cli -- train \
    --data letter --scale smoke --model "$FIG9_W1/model.json"
TAHOE_SIM_THREADS=1 cargo run --release --bin tahoe-cli -- serve \
    --data letter --scale smoke --model "$FIG9_W1/model.json" \
    --devices k80,p100,v100,p100 --requests 200 --interarrival 50 --slo-ns 500000 \
    --telemetry "$FIG9_W1/serve"
TAHOE_SIM_THREADS=4 cargo run --release --bin tahoe-cli -- serve \
    --data letter --scale smoke --model "$FIG9_W1/model.json" \
    --devices k80,p100,v100,p100 --requests 200 --interarrival 50 --slo-ns 500000 \
    --telemetry "$FIG9_W4/serve"
# All five views of the cluster (its trace, counters, kernel profiles and
# histograms, windowed series, decision audits and request paths) are
# byte-identical at any worker count.
cmp_views "$FIG9_W1/serve" "$FIG9_W4/serve"
# The serving trace carries the per-request flow events, and `tahoe-cli
# explain` digests the decisions view end-to-end. `grep -q` closes the pipe
# at its first match and the pipeline's status is grep's, so a CLI panic on
# the closed pipe is caught from its stderr instead.
grep -q '"request path"' "$FIG9_W1/serve/trace.json"
cargo run --release --bin tahoe-cli -- explain \
    --telemetry "$FIG9_W1/serve" --top 3 2>"$FIG9_W1/explain.stderr" \
    | grep -q "chose '"
if grep -q "panicked" "$FIG9_W1/explain.stderr"; then
    cat "$FIG9_W1/explain.stderr" >&2
    exit 1
fi
grep -q '"calibration_generation"' "$FIG9_W1/serve/decisions.json"

# Closed tuning loop (DESIGN.md §2.16), end to end: a single-device
# calibrated serve accumulates enough observations to refit (64-request
# batches, so 1000 requests cross the 8-observation interval twice), its
# views are byte-identical at 1 and 4 workers, and `tahoe-cli explain`
# digests the uncalibrated-vs-calibrated drift means from the recorded
# decisions.json (its stderr is checked for a panic as above).
TUNE_W1=$(mktemp -d)
TUNE_W4=$(mktemp -d)
TAHOE_SIM_THREADS=1 cargo run --release --bin tahoe-cli -- serve \
    --data letter --scale smoke --model "$FIG9_W1/model.json" \
    --requests 1000 --interarrival 50 --calibrate --telemetry "$TUNE_W1"
TAHOE_SIM_THREADS=4 cargo run --release --bin tahoe-cli -- serve \
    --data letter --scale smoke --model "$FIG9_W1/model.json" \
    --requests 1000 --interarrival 50 --calibrate --telemetry "$TUNE_W4"
cmp_views "$TUNE_W1" "$TUNE_W4"
grep -q '"calibration_generation": [1-9]' "$TUNE_W1/decisions.json"
cargo run --release --bin tahoe-cli -- explain \
    --telemetry "$TUNE_W1" 2>"$TUNE_W4/explain.stderr" \
    | grep -q "calibration: mean |drift|"
if grep -q "panicked" "$TUNE_W4/explain.stderr"; then
    cat "$TUNE_W4/explain.stderr" >&2
    exit 1
fi
rm -rf "$TUNE_W1" "$TUNE_W4"
rm -rf "$FIG9_W1" "$FIG9_W4"
