#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the root of a
# checkout: `bash benchmark/run.sh --workload point_single --seed 11
# --seconds 12 --trace 0`. Every file the toolchain writes (build cache,
# temp dirs, the binary) goes under .bench_build/ in the checkout;
# build chatter goes to stderr so the result stays the last stdout line.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOMODCACHE="$build/gopath/pkg/mod" GOENV=off GOTOOLCHAIN=local GOFLAGS=
(cd "$here" && go build -o "$build/benchmark" .) >&2
cd "$root"
exec "$build/benchmark" "$@"
