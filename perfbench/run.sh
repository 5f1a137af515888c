#!/usr/bin/env bash
# Builds the benchmark and urs-server from source, then runs one workload:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run from the repository root.  Build output goes to stderr; the last line of
# stdout is the result.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
cargo build --release --offline --quiet --manifest-path Cargo.toml -p urs-server --bin urs-server >&2
export PERFBENCH_SERVER="$CARGO_TARGET_DIR/release/urs-server"
# The commit, when the checkout is a git work tree; git must not look above it.
PERFBENCH_COMMIT="$(GIT_CEILING_DIRECTORIES="$(cd .. && pwd)" git rev-parse HEAD 2>/dev/null ||
  echo unknown)"
export PERFBENCH_COMMIT
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
