#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash bench/run.sh --workload closedm1-win10 --seed 1 --seconds 25 --trace 0
#
# The Go build cache and the binary stay under .bench_build/ in the
# checkout, and the toolchain is never downloaded.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOPATH="$out/go-path"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS="-mod=readonly -buildvcs=false" GOENV=off GOWORK=off
go -C bench build -o "$out/vm1bench" . >&2
exec "$out/vm1bench" "$@"
