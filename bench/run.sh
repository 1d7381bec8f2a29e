#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it from the repository
# root. Compiler output and the Go build cache stay under .bench_build, so a
# run writes nothing outside the checkout.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local
go build -C bench -o "$build/servebench" .
exec "$build/servebench" "$@"
