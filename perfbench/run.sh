#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from
# and runs one workload:
#
#   bash perfbench/run.sh --workload serve-30 --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ there, the Go build cache included.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root: no go.mod here" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache" \
	GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOTELEMETRY=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
# A cold build leaves the page cache full of dirty build output; flush it
# now rather than while the first run is measuring.
sync
cd "$build"
exec ./perfbench "$@"
