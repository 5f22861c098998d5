#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash bench/run.sh --workload cold-large --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (Go build cache, the go
# command's config and telemetry, binary, temp directories) goes under
# .bench_build/ in the repository root.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off

(cd "$root/bench" && go build -buildvcs=false -o "$out/bench" .)
exec "$out/bench" "$@"
