#!/usr/bin/env bash
# Builds the cxlbench benchmark from this checkout and runs it with the
# given arguments. Run it from the repository root:
#
#   bash cxlbench/run.sh --workload table5 --seed 0 --seconds 25 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the
# checkout: the Go build cache, temporary files, the benchmark binary,
# results.jsonl, span files and the service workload's job journal.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal/core || ! -f cxlbench/go.mod ]]; then
	echo "cxlbench: run from the repository root; go.mod, internal/ and cxlbench/ must be present" >&2
	exit 2
fi
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/gopath" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOTELEMETRY=off
(cd cxlbench && go build -o "$build/bin/cxlbench" .)
exec "$build/bin/cxlbench" "$@"
