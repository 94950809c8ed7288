#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it. Run it
# from the repository root, with the benchmark's flags:
#
#   bash perfbench/run.sh --workload paper-figs --seed 20160926 --seconds 30 --trace 0
#
# Everything the Go toolchain writes (build cache, temporary files,
# binaries) stays under .bench_build in the current directory, and no
# module is fetched.
set -euo pipefail
build="$PWD/.bench_build"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod" \
	XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache" \
	GOPROXY=off GOSUMDB=off GOWORK=off GOTOOLCHAIN=local GOFLAGS= GOENV=off
mkdir -p "$GOTMPDIR"
go build -C perfbench -o "$build/perfbench" .
exec "$build/perfbench" "$@"
