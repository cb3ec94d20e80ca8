#!/usr/bin/env bash
# Builds the benchmark from source (release, offline) and runs it with the
# given arguments, e.g.
#   bash perfbench/run.sh --workload fit-incore --seed 1 --seconds 25 --trace 0
# Run from the repository root. Every workload runs at a thread budget of 2.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
export EP2_THREADS=2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/ep2-perfbench" "$@"
