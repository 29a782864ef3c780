#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the root of a checkout:
#
#   bash perfbench/run.sh --workload fractal-p1 --seed 1 --seconds 10 --trace 0
#
# Everything it writes (the Go tool's cache, config and telemetry, the
# binary, golden values, samples, traces, sockets) lands in .bench_build/
# under the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config" \
	GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
