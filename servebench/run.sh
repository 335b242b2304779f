#!/usr/bin/env bash
# Builds the `gables` binary and the benchmark from source, then runs the
# benchmark with the given arguments:
#
#   bash servebench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Build artifacts go to $CARGO_TARGET_DIR
# (default .bench_build); span traces and full results go to
# $CARGO_TARGET_DIR/servebench.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --offline --release --quiet -p gables-cli
cargo build --offline --release --quiet --manifest-path servebench/Cargo.toml
exec "$CARGO_TARGET_DIR/release/servebench" \
    --gables "$CARGO_TARGET_DIR/release/gables" \
    --out-dir "$CARGO_TARGET_DIR/servebench" "$@"
