#!/usr/bin/env bash
# Builds the serving benchmark from source and runs it from the root of the
# repository checkout:
#
#   bash perfbench/run.sh --workload cnn-http --seed 1 --seconds 15 --trace 0
#
# The Go build cache, temporary files and the binary stay under .bench_build
# in the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
