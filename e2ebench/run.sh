#!/usr/bin/env bash
# Build the `dcds` CLI and the `e2ebench` harness from source, then run the
# harness with the given arguments, e.g.
#
#   bash e2ebench/run.sh --workload det_chain --seed 1 --seconds 25 --trace 0
#
# Run from the repository root. Build output goes to stderr so the last line
# of stdout is the harness's JSON result.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --manifest-path Cargo.toml --bin dcds >&2
cargo build --release --offline --quiet --manifest-path e2ebench/Cargo.toml >&2
export E2EBENCH_DCDS="$CARGO_TARGET_DIR/release/dcds"
exec "$CARGO_TARGET_DIR/release/e2ebench" "$@"
