#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it; every
# argument is passed through (see bench/README.md). Run it from the root
# of the repository. The Go build cache, the binary and the Go tool's
# configuration all live under .bench_build/, so nothing outside the
# checkout is read or written apart from the Go toolchain itself.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOWORK=off CGO_ENABLED=0

go -C bench build -o "$build/bench" .
exec "$build/bench" "$@"
