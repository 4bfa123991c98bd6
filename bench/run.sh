#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# given arguments. Everything the build leaves behind (binary and Go build
# cache) stays under bench/out/.build/, which bench/.gitignore covers.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/bench/out/.build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local
go build -C bench -o "$build/roiabench" .
exec "$build/roiabench" "$@"
