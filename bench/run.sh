#!/usr/bin/env bash
# Builds the benchmark harness from the source tree it is run in and runs
# it with the given arguments. Run it from the repository root:
#
#   bash bench/run.sh --workload query --seed 1 --seconds 15 --trace 0
#
# Every file the build touches (Go build cache, module cache, temporary
# files, the binary) stays under .bench_build in the current directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/cache" "$build/tmp" "$build/home"

export GOCACHE="$build/cache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export HOME="$build/home"
export XDG_CONFIG_HOME="$build/home"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go=go
if ! command -v go >/dev/null 2>&1 && [ -x /usr/local/go/bin/go ]; then
	go=/usr/local/go/bin/go
fi

(cd "$root/bench" && "$go" build -o "$build/loadimb-bench" .)
exec "$build/loadimb-bench" "$@"
