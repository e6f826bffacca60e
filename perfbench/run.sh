#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in, then runs it with
# the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload q1-local --seed 42 --seconds 20 --trace 0
#
# The build cache and the binary live in .bench_build/ under the
# current directory, so nothing outside the checkout is written.
set -euo pipefail

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOTOOLCHAIN=local
export GOFLAGS=
export GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
