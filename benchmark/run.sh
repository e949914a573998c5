#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in, then runs
# it with the given arguments:
#
#   bash benchmark/run.sh --workload spend-narrow --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every file the build and the run write
# (Go build cache, binary, data directories, span logs) stays under
# .bench_build/ in that root, so the Go caches of the machine are not touched.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/benchmark" ]]; then
	echo "run.sh: run from the repository root (go.mod and benchmark/ expected in $root)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/home" "$build/tmp"
export HOME="$build/home"
export XDG_CONFIG_HOME="$build/home/.config"
export XDG_CACHE_HOME="$build/home/.cache"
export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOTOOLCHAIN=local
export GOWORK=off
export GOPROXY=off

(cd "$root/benchmark" && go build -o "$build/tmbench" .)
exec "$build/tmbench" -work "$build/run" "$@"
