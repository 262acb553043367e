#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload serve-hit --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the build and the run write
# stays under .bench_build in the current directory (Go's build cache
# included), and no module is fetched: the benchmark needs only the
# repository's own module, found at the parent of this directory.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
build=$(pwd)/.bench_build
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-modcacherw
(cd "$here" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
