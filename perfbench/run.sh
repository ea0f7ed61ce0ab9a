#!/usr/bin/env bash
# Builds the benchmark program and the inputtuned daemon from the checkout
# this script lives in, then runs one workload:
#
#   bash perfbench/run.sh --workload discrete-hot --seed 1 --seconds 26 --trace 0
#
# Every build product and cache stays under .bench_build/ at the checkout
# root; stdout carries the metric table and, as its last line, the JSON
# result. The exit code is nonzero when the build fails or any check does.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOTELEMETRY=off
(
	cd "$here"
	go build -o "$build/perfbench" .
	go build -o "$build/inputtuned" inputtune/cmd/inputtuned
) >&2
exec "$build/perfbench" --daemon "$build/inputtuned" --workdir "$build/run" "$@"
