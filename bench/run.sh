#!/usr/bin/env bash
# Builds the benchmark from source into the checkout's .bench_build/ and
# replaces this shell with it: one foreground process, no children left.
# The Go build cache and the toolchain's own counter files
# (XDG_CONFIG_HOME) live there too, so nothing is written outside the
# checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
mkdir -p .bench_build
export GOCACHE="$root/.bench_build/gocache" XDG_CONFIG_HOME="$root/.bench_build/config" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
go build -C bench -o "$root/.bench_build/lhbench" .
exec "$root/.bench_build/lhbench" "$@"
