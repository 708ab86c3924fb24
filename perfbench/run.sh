#!/usr/bin/env bash
# Builds c4d, c4-gateway and the benchmark binary from source, then runs
# it from the repository root, e.g.
#
#   bash perfbench/run.sh --workload suite_seq --seed 1 --seconds 24 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build); traced
# runs write their spans under $CARGO_TARGET_DIR/perfbench/.
set -euo pipefail
target="${CARGO_TARGET_DIR:-.bench_build}"
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --manifest-path Cargo.toml \
    -p c4-service -p c4-gateway --bins >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$target/release/c4-perfbench" --bin-dir "$target/release" \
    --out-dir "$target/perfbench" "$@"
