#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# from the root of the checkout. Everything the build and the run write
# stays under .bench_build/ in the checkout: the binary, Go's build cache,
# the go command's telemetry counters (XDG_CONFIG_HOME) and the workloads'
# PQR and checkpoint files.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
mkdir -p .bench_build
GOCACHE="$PWD/.bench_build/go-cache" XDG_CONFIG_HOME="$PWD/.bench_build/config" \
	GOTOOLCHAIN=local GOWORK=off go build -C benchmarks -o ../.bench_build/benchmarks .
exec .bench_build/benchmarks "$@"
