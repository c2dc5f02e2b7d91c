#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it; the
# arguments go to the benchmark program (see README.md). The benchmark is a Go
# module of its own that imports the repository's packages through a replace
# directive, so it needs the repository around it and fails without.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
# Everything the go tool writes stays inside the checkout.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOENV=off GOFLAGS= GOTOOLCHAIN=local GOWORK=off
go build -C "$root/benchmark" -o "$build/benchmark" .
cd "$root"
exec "$build/benchmark" "$@"
