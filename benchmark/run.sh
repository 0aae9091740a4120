#!/usr/bin/env bash
# Builds the benchmark in release mode and runs it; see benchmark/README.md.
#
#   benchmark/run.sh [--seed N] [--reps N] [--workload W]... [--smoke]
#       the suite: ledgers, every metric, out/results.json, out/trace.json
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one measured run; the last line of output is one JSON object
#   benchmark/run.sh compare A.json B.json
#   benchmark/run.sh test
#       the harness's own unit tests
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

# cargo resolves a relative CARGO_TARGET_DIR against its own working
# directory; pin it to the caller's so the binary is where we look for it.
case "${CARGO_TARGET_DIR:-}" in
    "") export CARGO_TARGET_DIR="$here/target" ;;
    /*) ;;
    *) export CARGO_TARGET_DIR="$PWD/$CARGO_TARGET_DIR" ;;
esac

# The sorn crates need rand, serde and serde_json. Where the registry
# crates resolve offline (a vendored or cached registry, as the root
# `cargo build --release` would use), build against them; otherwise
# against the stand-ins in stubs/, whose rand stream differs and whose
# serde_json cannot serialize. The harness calls neither crate itself, so
# its numbers and checks are valid either way, but they are only
# comparable between runs of the same mode: results.json records it.
cargo_args=(--offline --manifest-path "$here/Cargo.toml")
if [ "${SORN_BENCH_DEPS:-}" != stub ] &&
    cargo metadata --format-version 1 "${cargo_args[@]}" >/dev/null 2>&1; then
    export SORN_BENCH_DEPS=registry
else
    export SORN_BENCH_DEPS=stub
    cargo_args+=(--config "$here/stubs/patch.toml")
fi

if [ "${1:-}" = test ]; then
    exec cargo test --release "${cargo_args[@]}"
fi

# Quiet unless it fails: a measured run's output ends in one JSON line.
if ! build_log="$(cargo build --release "${cargo_args[@]}" 2>&1)"; then
    printf '%s\n' "$build_log" >&2
    exit 1
fi
bin="$CARGO_TARGET_DIR/release/benchmark"

if [ "${1:-}" = compare ]; then
    exec "$bin" "$@"
fi

out="$here/out"
"$bin" run --out-dir "$out" "$@"

# The JSON is written by hand; hold it to a real parser.
for f in results.json trace.json; do
    python3 -m json.tool "$out/$f" >/dev/null || {
        echo "benchmark: $out/$f is not valid JSON" >&2
        exit 1
    }
done
