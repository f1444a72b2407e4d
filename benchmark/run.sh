#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument goes to the
# harness (see `run.sh --help` or README.md). Build output goes to stderr so
# that standard output ends with the run's result line.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/pdsat-benchmark" "$@"
