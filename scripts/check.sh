#!/usr/bin/env bash
# Local CI gate: formatting, lints, doc links, and the full test suite.
# Run from anywhere inside the repo.
#
# Runs every step even when an earlier one fails, prints a per-step
# pass/fail recap, and exits with the first failing step's code.
set -uo pipefail

cd "$(dirname "$0")/.."

STEPS=()
RESULTS=()
FIRST_FAILURE=0

run_step() {
    local name="$1"
    shift
    echo "== ${name} =="
    "$@"
    local code=$?
    STEPS+=("$name")
    if [ "$code" -eq 0 ]; then
        RESULTS+=(pass)
    else
        RESULTS+=("FAIL (exit $code)")
        if [ "$FIRST_FAILURE" -eq 0 ]; then
            FIRST_FAILURE=$code
        fi
    fi
    echo
}

# The workspace is std only: Cargo.lock lists workspace members and
# nothing else — no `source =` line (registry or git) and no package
# outside `sorn*` (a path-patched stand-in has no source line).
std_only() {
    local foreign
    foreign=$(grep -n -e '^source = ' -e '^name = ' Cargo.lock | grep -v -e '"sorn"$' -e '"sorn-')
    if [ -n "$foreign" ]; then
        echo "$foreign"
        echo "Cargo.lock names a package outside the workspace (above); the workspace is std only."
        return 1
    fi
}

# Every packet run of the experiments goes through one path,
# sorn-analysis's `drive` module: no other file there names the engine.
one_drive() {
    local stray
    stray=$(grep -rn "Engine::" crates/analysis/src | grep -v '^crates/analysis/src/drive.rs:')
    if [ -n "$stray" ]; then
        echo "$stray"
        echo "sorn-analysis reaches the engine outside drive.rs (above); describe the run as a drive::Run instead."
        return 1
    fi
}

run_step "Cargo.lock is workspace only" std_only
run_step "Engine only in drive.rs" one_drive
run_step "cargo fmt --check" cargo fmt --all --check
run_step "cargo clippy (deny warnings)" cargo clippy --workspace --all-targets -- -D warnings
# Every intra-doc link must resolve: a link to a deleted item fails here.
run_step "cargo doc (deny warnings)" env RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
run_step "cargo test" cargo test --workspace -q --no-fail-fast

echo "== recap =="
for i in "${!STEPS[@]}"; do
    printf '%-30s %s\n' "${STEPS[$i]}" "${RESULTS[$i]}"
done

if [ "$FIRST_FAILURE" -ne 0 ]; then
    echo "Checks failed."
else
    echo "All checks passed."
fi
exit "$FIRST_FAILURE"
