#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root, e.g.
#
#   bash perfbench/run.sh --workload paper --seed 1 --seconds 30 --trace 0
#
# The binary, the Go build cache and the go command's own state (module
# cache, telemetry) live under .bench_build/ so nothing is written
# outside the checkout; GOPROXY=off keeps the build offline.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
