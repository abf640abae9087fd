#!/usr/bin/env bash
# The benchmark's one command. Builds both binaries from source, then runs
# the untraced one (--trace 0: end-to-end metrics) or the traced one
# (--trace 1: per-layer metrics) with the arguments it was given:
#
#   bash benchmark/run.sh --workload rpc_small --seed 1 --seconds 22 --trace 0
#
# The last line of standard output is the result as one JSON object.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

trace=0
prev=
for arg in "$@"; do
    [[ $prev == --trace ]] && trace=$arg
    prev=$arg
done

target=${CARGO_TARGET_DIR:-benchmark/target}
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2

bin=pardis-bench
[[ $trace == 1 ]] && bin=pardis-bench-traced
exec "$target/release/$bin" "$@"
