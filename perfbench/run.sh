#!/usr/bin/env bash
# Builds the daemon and the benchmark from source, then runs one workload:
#
#   bash perfbench/run.sh --workload hit|miss --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Builds land in $CARGO_TARGET_DIR
# (default .bench_build); only the benchmark's report reaches stdout, and
# its last line is the JSON result.
set -euo pipefail
target="${CARGO_TARGET_DIR:-.bench_build}"
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet -p minobs-svc --bin minobs-svcd >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$target/release/perfbench" --daemon "$target/release/minobs-svcd" \
    --work-dir "$target/perfbench" "$@"
