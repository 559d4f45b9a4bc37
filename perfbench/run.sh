#!/usr/bin/env bash
# Builds perfbench from source and runs it with the given arguments, e.g.
#   bash perfbench/run.sh --workload large --seed 1 --seconds 20 --trace 0
# Run from the repository root. The Go build cache, the binary and every
# file a run writes stay under .bench_build/ in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go -C "$root/perfbench" build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
