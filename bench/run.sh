#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
# Run from the repository root:
#
#   bash bench/run.sh                       # every workload, 5 repeats, traced run, result file
#   bash bench/run.sh -workload adainf-8app -seed 3 -seconds 10 -trace 0
#   bash bench/run.sh -compare A.json B.json
#
# Everything the build and the runs write stays under .bench_build/ in
# the repository: the Go build cache, temporary profile caches and the
# binary. No module is downloaded; the benchmark imports only the
# repository and the standard library.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/bench/go.mod" ]]; then
	echo "bench/run.sh: run from the repository root (go.mod and bench/go.mod not found)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$root/bench" && go build -o "$build/bench" .)
exec "$build/bench" "$@"
