#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload kv-openloop --seed 1 --seconds 20 --trace 0
#
# The Go build cache, module cache, temporary files and the go command's
# user directories live under .bench_build, so the benchmark reads and
# writes nothing outside the checkout besides the Go toolchain itself.
set -euo pipefail
if [[ ! -f go.mod || ! -d internal || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (internal/ and go.mod not found)" >&2
	exit 2
fi
build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/home"
env HOME="$build/home" XDG_CONFIG_HOME="$build/home" XDG_CACHE_HOME="$build/home" \
	GOPATH="$build/gopath" GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off GOENV=off \
	go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
