#!/usr/bin/env bash
# One entry point a CI job can call: style gates, the benchmark's own
# unit tests, and the whole suite at --smoke sizes (under 20 s once
# built), ending with `agree` of the smoke set against itself.
#
#   benchmark/check.sh [scratch-dir]
#
# Run from anywhere; builds into the repository's target directory
# unless CARGO_TARGET_DIR says otherwise.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
scratch="${1:-$here/../.bench_scratch}"
out="$scratch/check-out"
manifest="$here/Cargo.toml"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/../target}"

cargo fmt --manifest-path "$manifest" --check
cargo clippy --offline --manifest-path "$manifest" --all-targets -- -D warnings
cargo test --offline --release --manifest-path "$manifest"

run() { cargo run --offline --release --quiet --manifest-path "$manifest" -- "$@"; }
trap 'rm -rf "$out"' EXIT
run all --smoke --seconds 1 --scratch "$scratch" --out-dir "$out" --out "$out/smoke.json"
run agree "$out/smoke.json" "$out/smoke.json"
echo "benchmark/check.sh: ok"
