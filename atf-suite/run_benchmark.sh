#!/usr/bin/env bash
# Builds atf-suite (release) and runs it with the arguments given — the
# literal command BENCHMARK.json records. Run it from the repository root:
#
#   bash atf-suite/run_benchmark.sh --workload tune_mem --seed 1 --seconds 10 --trace 0
#   bash atf-suite/run_benchmark.sh run --repeat 3 --out old.json
#   bash atf-suite/run_benchmark.sh compare old.json new.json
#
# It modifies no tracked file: build output, scratch files, traces and the
# default result file all land in the cargo target directory
# (CARGO_TARGET_DIR, else atf-suite/target).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "${CARGO_TARGET_DIR:-$here/target}/release/atf-suite" "$@"
