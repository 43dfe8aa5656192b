#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments (see perfbench/README.md). Run it from the repository
# root:
#
#   bash perfbench/run.sh --workload transfer --seed 1 --seconds 10 --trace 0
#
# Every build artefact, the Go build cache included, stays under
# .bench_build/ in the checkout, and nothing is downloaded.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
go -C "$root/perfbench" build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
