#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout's sources and runs it.
# Run from the repository root; every argument goes to the benchmark, e.g.
#
#   bash e2ebench/run.sh --workload ingest --seed 3 --seconds 20 --trace 0
#
# The build cache, the binary and the durable stores stay under
# .bench_build/ in the current directory.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(pwd)/.bench_build/e2ebench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$here" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" --workdir "$out" "$@"
