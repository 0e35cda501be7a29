#!/usr/bin/env bash
# Builds and runs the benchmark. Run it from the repository root:
#
#   bash perfbench/run.sh --workload session-mix --seed 1 --seconds 10 --trace 0
#
# The Go build cache and every temporary build file stay in .bench_build
# at the root, and the module cache is not consulted: the benchmark
# module depends only on the repository's own module, through a
# directory replace.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/perfbench" ]]; then
	echo "run.sh: run from the repository root" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/modcache"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/modcache"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
cd "$root/perfbench"
exec go run . "$@"
