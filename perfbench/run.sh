#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it; every
# argument is passed on (see main.go). Run from the repository root:
#
#   bash perfbench/run.sh --workload warmup --seed 1 --seconds 10 --trace 0
#
# The Go build cache, module cache and binary live under the build
# directory inside the checkout (CARGO_TARGET_DIR when set, else
# .bench_build), so nothing is read or written outside it. A failed
# build exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOENV=off
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
