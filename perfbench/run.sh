#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs one workload.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload reproduce --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail

build="$PWD/.bench_build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off

commit=unknown
if [ -e .git ] && rev=$(git rev-parse --short=12 HEAD 2>/dev/null); then
	commit=$rev
	git diff --quiet HEAD -- 2>/dev/null || commit="$rev-dirty"
fi
go -C perfbench build -buildvcs=false -ldflags "-X main.commit=$commit" -o "$build/perfbench" .
exec "$build/perfbench" "$@"
