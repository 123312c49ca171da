#!/bin/sh
# Entry point named by BENCHMARK.json: build the benchmark into the
# checkout's .bench_build and run it from the checkout root. Every path
# the Go toolchain writes (build cache, module cache, temp, telemetry)
# is pointed inside .bench_build so nothing outside the checkout is
# touched.
set -e
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOFLAGS=-mod=mod GOTOOLCHAIN=local
(cd "$root/bench" && go build -o "$build/pipeline-bench" .)
cd "$root"
exec "$build/pipeline-bench" "$@"
