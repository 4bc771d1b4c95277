#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# arguments given, from the root of the checkout:
#
#   bash perfbench/run.sh --workload logs-corroborate --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write (Go build cache, binary, the
# serve-churn data directories, trace files) stays under .bench_build/.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home" XDG_CACHE_HOME="$out/home"
export GOENV=off GOFLAGS= GOPROXY=off GOWORK=off GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .)
export TMPDIR="$out/tmp"
exec "$out/perfbench" "$@"
