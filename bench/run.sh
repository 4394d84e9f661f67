#!/usr/bin/env bash
# Builds the benchmark and runs it with the arguments given. The binary, the
# Go build cache and the compiler's temporary files all go under .bench_build/
# at the root of the checkout, so nothing is written outside it.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOENV=off GOWORK=off GOTOOLCHAIN=local GOFLAGS=
(cd "$here" && go build -o "$build/subzero-bench" .)
cd "$root"
exec "$build/subzero-bench" "$@"
