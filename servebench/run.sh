#!/usr/bin/env bash
# Builds the resident-service benchmark from source and runs it from the
# root of the checkout. Every build and run artifact stays under
# .bench_build/ in the checkout (Go build cache included), and no module is
# ever fetched: the only dependency is the enclosing argan module.
#
#   bash servebench/run.sh --workload traverse --seed 1 --seconds 20 --trace 0
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath" "$build/config" "$build/tmp"
# XDG_CONFIG_HOME keeps the go command's own config and telemetry files in
# the checkout too, and TMPDIR any temporary file of the benchmark itself.
export TMPDIR="$build/tmp" GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" \
	GOMODCACHE="$build/gopath/pkg/mod" XDG_CONFIG_HOME="$build/config" \
	GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off
(cd "$root/servebench" && go build -o "$build/bin/servebench" .)
exec "$build/bin/servebench" "$@"
