#!/bin/sh
# The BENCHMARK.json command. Builds the benchmark from the checkout it
# is run in and executes it with the given arguments. The go build
# cache, go's temporary files and the binary all live under
# .bench_build/ so that a run reads and writes nothing outside the
# checkout (XDG_CONFIG_HOME is where the go command keeps its telemetry
# counters); after the first build a run spends well under a second here.
# `go run ./benchmark ARGS` is the same program with go's usual caches.
set -eu
build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
