#!/usr/bin/env bash
# Builds the workspace's serving binaries and the benchmark harness in
# release mode, then runs the harness. All arguments go to the harness:
#
#   benchmark/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1 | --traced]
#   benchmark/run.sh selfcheck [--sets N]
#   benchmark/run.sh --help
#
# Both packages build into $CARGO_TARGET_DIR (default: target/ at the
# repository root). Paths are kept relative to the root so the Unix sockets
# the harness and the clusters create under benchmark/out/ stay short.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
# no -p: the two binaries are found in whichever workspace crate holds them
cargo build --release --offline --quiet --bin rads-node --bin rads-query >&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/rads-benchmark" "$@" --bin-dir "$CARGO_TARGET_DIR/release"
