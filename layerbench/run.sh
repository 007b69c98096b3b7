#!/usr/bin/env bash
# Builds the layered benchmark from this checkout's sources and runs it from
# the checkout root; every argument is passed on. Build outputs, the Go
# build cache and the benchmark's stores stay under .bench_build/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/home"

# Keep the toolchain inside the checkout and offline.
export HOME="$build/home" GOCACHE="$build/gocache" GOPATH="$build/gopath" \
	GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= CGO_ENABLED=0

(cd "$here" && go build -o "$build/layerbench" .) >&2
cd "$root"
exec "$build/layerbench" "$@"
