#!/usr/bin/env bash
# Build `tpn` and the benchmark from this checkout, then run one
# benchmark invocation. Arguments pass through:
#   bash perfbench/run.sh --workload warm_hit --seed 1 --seconds 10 --trace 0
# Build output goes to stderr; the last stdout line is the result JSON.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml --bin tpn >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --tpn "$CARGO_TARGET_DIR/release/tpn" "$@"
